import numpy as np
import pytest

import leraydec as ld
from leraydec import spectral


@pytest.fixture(scope="session")
def grid8():
    return ld.Grid(8)


@pytest.fixture(scope="session")
def grid16():
    return ld.Grid(16)


@pytest.fixture(scope="session")
def grid32():
    return ld.Grid(32)


@pytest.fixture()
def rand16(grid16):
    return ld.random_solenoidal(grid16, seed=11)


@pytest.fixture()
def tg16(grid16):
    return ld.taylor_green(grid16)


def rel_l2(a, b):
    """Relative L2 distance between two spectral fields on the same grid,
    each held on the full grid or on a band."""
    a, b = a.padded(), b.padded()
    diff = a.with_coeffs(a.coeffs - b.coeffs)
    denom = ld.hs_norm(b, 0)
    return ld.hs_norm(diff, 0) / denom if denom else ld.hs_norm(diff, 0)


def energy(f):
    """Total kinetic energy (1/2) sum_k |w_hat(k)|^2."""
    return float(0.5 * (f.coeffs.real**2 + f.coeffs.imag**2).sum())


def inner(f, g):
    """Real L2 pairing (2 pi)^-3 int f.g dx = sum_k Re f_hat(k).conj(g_hat(k)),
    of two full-grid fields."""
    c, d = f.coeffs, g.coeffs
    return float((c.real * d.real + c.imag * d.imag).sum())


def k_linf(grid):
    """|k|_inf per mode of the full grid."""
    return np.maximum(np.abs(grid.kx), np.maximum(np.abs(grid.ky), np.abs(grid.kz)))


def band_mask(grid):
    """Full-grid mask of the integrated modes: the dealias band |k|_inf <= n/3."""
    return k_linf(grid) <= grid.dealias_cutoff


def hermitian(coeffs):
    """Full-grid coefficients with the kz < 0 half replaced by the conjugate
    reflection of the rest, as padding a band writes it: exactly the
    coefficients of a real field, where a transform leaves its rounding."""
    n = coeffs.shape[-1]
    out = coeffs.copy()
    out[..., n // 2 + 1:] = spectral.reflected_conjugate(coeffs)[..., n // 2 + 1:]
    return out


def curl(f):
    """Coefficients of the curl of a spectral field, i k x f_hat."""
    g, c = f.grid, f.coeffs
    return 1j * np.stack([g.ky * c[2] - g.kz * c[1],
                          g.kz * c[0] - g.kx * c[2],
                          g.kx * c[1] - g.ky * c[0]])


def shell_energies(f):
    """Energies of the shells m - 1 < |k| <= m, m = 1, 2, ...: a bincount over ceil(|k|)."""
    density = 0.5 * (f.coeffs.real**2 + f.coeffs.imag**2).sum(axis=0)
    shells = np.ceil(f.grid.k_mag).astype(np.int64)
    return np.bincount(shells.ravel(), weights=density.ravel())[1:]


# The box's symmetries, acting on full-grid coefficients c[component, kx, ky,
# kz] with each axis in FFT order; the model and its diagnostics commute with
# each of them to a few rounding errors.
SYMMETRY_TOLERANCE = 64 * np.finfo(np.float64).eps  # relative to the largest value compared


def swap_xy(c, grid):  # u'(x, y, z) = (u_y, u_x, u_z)(y, x, z)
    return c[[1, 0, 2]].transpose(0, 2, 1, 3)


def reflect(axis):  # u' = u with coordinate and component `axis` negated: k_axis -> -k_axis
    def reflect(c, grid):  # along the axis, index i -> -i mod n
        out = np.roll(np.flip(c, axis=axis + 1), 1, axis=axis + 1)
        out[axis] *= -1
        return out
    return reflect


def shift(axis, half_box=False):  # u'(x) = u(x - h e_axis) for one cell h = 2 pi / n, or h = pi
    return lambda c, grid: c * np.exp(-1j * grid.wavevectors()[axis] * (np.pi if half_box else 2 * np.pi / grid.n))
