"""Initial-condition and forcing field construction.

Every constructor returns a solenoidal, zero-mean SpectralField whose modes
sit inside the negation-closed band (Nyquist planes zero), so the fields
satisfy the representation invariants by construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import spectral
from .spectral import Grid, ParameterError, SpectralField, check_finite, check_request


@dataclass(frozen=True)
class FieldSpec:
    """Recipe for an analytic or seeded random field, one kind per constructor.

    Used both for initial conditions and for steady forcing.  A kind reads
    the fields its row of `_KINDS` lists, by name, and any other field set
    off its default is rejected by key.
    """

    kind: str = "zero"
    amplitude: float = 1.0
    mode: tuple[int, int, int] = (1, 0, 0)
    slope: float = -5.0 / 3.0
    seed: int = 0
    band: int | None = None

    def __post_init__(self):
        if self.kind not in FIELD_KINDS:
            raise ParameterError("kind", f"unknown field kind {self.kind!r}, expected one of {FIELD_KINDS}")
        check_request(self, _KINDS[self.kind][1])
        check_finite("amplitude", self.amplitude)
        check_finite("slope", self.slope)
        if self.seed < 0:
            raise ParameterError("seed", f"seed must be >= 0, got {self.seed}")

    def evaluate(self, grid: Grid) -> SpectralField:
        return evaluate_field(self, grid)

    def check(self, grid: Grid) -> None:
        """Raise ParameterError for a parameter evaluate(grid) would reject,
        without evaluating the field.  A field the kind does not read sits at
        its default, which fits every grid."""
        _checked_mode(grid, self.mode)
        _checked_slope(self.slope, _checked_band(grid, self.band))


def _from_modes(grid: Grid, modes) -> SpectralField:
    """The field whose only nonzero coefficients are the given (component,
    wavevector, coefficient) triples; a real field lists k and -k alike."""
    f = spectral.zeros(grid)
    for component, k, coefficient in modes:
        f.coeffs[(component, *grid.mode_index(k))] = coefficient
    return f


def taylor_green(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """The classical Taylor-Green vortex, modes on the |k|^2 = 3 shell: exactly
    -i a kx / 8 on u_0 and i a ky / 8 on u_1 at the corners k = (+-1, +-1, +-1)."""
    a = amplitude / 8.0
    corners = itertools.product((1, -1), repeat=3)
    return _from_modes(grid, [term for k in corners for term in ((0, k, -1j * a * k[0]), (1, k, 1j * a * k[1]))])


def single_mode(grid: Grid, mode, amplitude: float = 1.0) -> SpectralField:
    """amplitude * p * cos(k.x) with polarization p perpendicular to k.

    The polarization axis is the coordinate direction of the smallest |k|
    component (lowest index on ties), projected perpendicular to k and
    normalized, so the construction is deterministic.
    """
    k = _checked_mode(grid, mode)
    axis = int(np.argmin(np.abs(k)))
    e = np.zeros(3)
    e[axis] = 1.0
    kk = k.astype(np.float64)
    p = e - (e @ kk) * kk / (kk @ kk)
    p /= np.sqrt(p @ p)

    half = 0.5 * amplitude * p
    return _from_modes(grid, [(i, s * k, half[i]) for s in (1, -1) for i in range(3)])


def _checked_mode(grid: Grid, mode) -> np.ndarray:
    try:
        k = np.asarray(mode, dtype=np.int64)
    except OverflowError:  # a component past int64 fits no grid
        raise ParameterError("mode", f"mode {mode} does not fit the negation-closed band of n={grid.n}") from None
    if k.shape != (3,) or not np.any(k):
        raise ParameterError("mode", f"mode must be a nonzero integer triple, got {mode}")
    if np.abs(k).max() > grid.n // 2 - 1:
        raise ParameterError("mode", f"mode {mode} does not fit the negation-closed band of n={grid.n}")
    return k


def random_solenoidal(
    grid: Grid,
    seed: int = 0,
    slope: float = -5.0 / 3.0,
    amplitude: float = 1.0,
    band: int | None = None,
) -> SpectralField:
    """Seeded random divergence-free field with shell energies ~ |k|^slope.

    White noise is sampled on the collocation grid and transformed; on the
    band |k|_inf <= cut it is shaped per mode by |k|^{(slope - 2)/2} to
    account for the |k|^2 growth of shell populations, projected, rescaled
    to the requested L2 norm and padded, once, to the full grid.

    The one constructor that transforms samples: drawing the band modes in
    spectral space would move every seeded field, and perfbench's oracle
    rebuilds this recipe (the transform of standard_normal((3, n, n, n))),
    so the noise stays physical until the benchmark moves with it.
    """
    cut = _checked_band(grid, band)
    _checked_slope(slope, cut)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((3, grid.n, grid.n, grid.n))
    modes = spectral.Band(grid, cut)
    c = modes.restrict(spectral.from_physical(grid, noise).coeffs)

    k_mag = modes.k_mag
    shaping = np.zeros(k_mag.shape)
    shaping[k_mag > 0] = k_mag[k_mag > 0] ** ((slope - 2.0) / 2.0)

    c *= shaping
    spectral.leray_project_inplace(c, modes, np.empty_like(c[:2]))
    f = SpectralField(grid, c, band=modes)
    norm = spectral.hs_norm(f, 0)
    if norm == 0.0:
        raise ValueError("random field collapsed to zero; widen the band")
    c *= amplitude / norm
    return f.padded()


def _checked_band(grid: Grid, band: int | None) -> int:
    """The cube |k|_inf <= cut a random field fills: band, the dealias cutoff
    when None, within the negation-closed band."""
    cut = min(grid.dealias_cutoff if band is None else int(band), grid.n // 2 - 1)
    if cut < 1:
        raise ParameterError("band", f"band must be >= 1, got {band}")
    return cut


def _checked_slope(slope: float, cut: int) -> None:
    """Reject a slope whose shaping |k|^((slope - 2)/2) on |k| <= sqrt(3) * cut, or the sum of
    its squares (at most 3 (2 cut + 1)^3 times the peak square, taken in logs), overflows."""
    k_max = math.sqrt(3.0) * cut
    log_peak = max((slope - 2.0) / 2.0, 0.0) * math.log(k_max)
    if 2.0 * log_peak + math.log(3 * (2 * cut + 1) ** 3) >= math.log(np.finfo(np.float64).max):
        raise ParameterError("slope", f"slope {slope} overflows the spectral shaping on |k| <= {k_max:.4g}")


def abc_flow(grid: Grid, amplitude: float = 1.0) -> SpectralField:
    """Equal-coefficient ABC flow, a Beltrami field on the |k| = 1 shell.

    curl u = u, so the advective nonlinearity is a pure gradient and the
    unforced viscous solution is the exact exponential decay exp(-nu t) u0.
    Useful as a manufactured solution for the time integrator.  u_i =
    a (sin x_s + cos x_c) holds exactly -+i a/2 at +-e_s and a/2 at +-e_c.
    """
    h, e = amplitude / 2.0, np.eye(3, dtype=np.int64)
    return _from_modes(grid, [term for i, (s, c) in enumerate(((2, 1), (0, 2), (1, 0))) for sign in (1, -1)
                              for term in ((i, sign * e[s], -1j * h * sign), (i, sign * e[c], h))])


# kind: (constructor, the FieldSpec fields it reads, passed by name)
_KINDS = {
    "zero": (spectral.zeros, ()),
    "taylor_green": (taylor_green, ("amplitude",)),
    "abc_flow": (abc_flow, ("amplitude",)),
    "single_mode": (single_mode, ("mode", "amplitude")),
    "random_solenoidal": (random_solenoidal, ("seed", "slope", "amplitude", "band")),
}
FIELD_KINDS = tuple(_KINDS)


def evaluate_field(spec: FieldSpec, grid: Grid) -> SpectralField:
    """The field spec describes on grid, built by the constructor of its kind."""
    constructor, reads = _KINDS[spec.kind]
    return constructor(grid, **{name: getattr(spec, name) for name in reads})
