"""Independent reference integrator for the benchmark's output checks.

It re-implements, with numpy alone and from the equations documented in
leraydec.solver, leraydec.filtering and leraydec.fields, the runs the
benchmark asks the program for: seeded random solenoidal initial condition,
Taylor-Green or zero forcing, 2/3-rule dealiasing, the deconvolved advecting
velocity in closed form h_N = 1 - (x / (1 + x))^(N+1), and the low-storage
Williamson RK3 with an exact viscous integrating factor.  It shares no code
with leraydec, so a wrong operator shows as a mismatch far above the 1e-9
tolerance, while a change that only moves rounding (real-to-complex
transforms, fused loops, iterated versus closed-form deconvolution) stays far
below it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

RK_A = (0.0, -5.0 / 9.0, -153.0 / 128.0)
RK_B = (1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0)
RK_GAPS = (1.0 / 3.0, 5.0 / 12.0, 1.0 / 4.0)

REL_TOL = 1e-9


@dataclass(frozen=True)
class RunParams:
    n: int
    order: int | None  # None: Navier-Stokes, no filter
    delta: float
    nu: float
    dt: float
    steps: int
    seed: int
    band: int
    forcing_amplitude: float  # 0: unforced; otherwise Taylor-Green forcing
    slope: float = -5.0 / 3.0


def params_of(config) -> RunParams:
    """Read the run a leraydec SolverConfig describes; reject what the oracle cannot do."""
    if config.ic.kind != "random_solenoidal" or config.ic.amplitude != 1.0:
        raise ValueError(f"oracle supports unit random_solenoidal initial conditions, got {config.ic}")
    if config.forcing.kind not in ("zero", "taylor_green"):
        raise ValueError(f"oracle supports zero or taylor_green forcing, got {config.forcing.kind}")
    if not (config.dealias and config.filter_ic and config.filter_forcing
            and config.conv_form == "advective" and config.grid.dealias_fraction == 2.0 / 3.0):
        raise ValueError("oracle supports the default dealiasing, filtering and advective form only")
    regularized = config.model.family == "leray_deconv"
    return RunParams(
        n=config.grid.n,
        order=config.model.order if regularized else None,
        delta=config.filter.delta if regularized else 0.0,
        nu=config.nu,
        dt=config.dt,
        steps=config.steps,
        seed=config.ic.seed,
        band=config.ic.band if config.ic.band is not None else config.grid.dealias_cutoff,
        forcing_amplitude=config.forcing.amplitude if config.forcing.kind == "taylor_green" else 0.0,
        slope=config.ic.slope,
    )


@functools.lru_cache(maxsize=16)
def terminal(p: RunParams) -> np.ndarray:
    """Full-spectrum coefficients (3, n, n, n) of the state after p.steps steps."""
    n = p.n
    k1 = np.fft.fftfreq(n, 1.0 / n)
    kx, ky, kz = k1.reshape(n, 1, 1), k1.reshape(1, n, 1), k1.reshape(1, 1, n)
    kvec = (kx, ky, kz)
    ksq = kx**2 + ky**2 + kz**2
    ksafe = np.where(ksq > 0, ksq, 1.0)
    kinf = np.maximum(np.abs(kx), np.maximum(np.abs(ky), np.abs(kz)))
    mask = kinf <= (2 * (n // 2)) // 3

    def fwd(u):
        return np.fft.fftn(u, axes=(1, 2, 3)) / n**3

    def inv(c):
        return np.fft.ifftn(c, axes=(1, 2, 3)).real * n**3

    def project(c):
        factor = (kx * c[0] + ky * c[1] + kz * c[2]) / ksafe
        return np.stack([c[j] - kvec[j] * factor for j in range(3)])

    if p.order is None:
        smoother = np.ones_like(ksq)
    else:
        r = (p.delta**2 * ksq) / (1.0 + p.delta**2 * ksq)
        smoother = 1.0 - r ** (p.order + 1)

    noise = fwd(np.random.default_rng(p.seed).standard_normal((3, n, n, n)))
    shaping = np.where(ksq > 0, np.sqrt(ksafe) ** ((p.slope - 2.0) / 2.0), 0.0)
    shaping *= kinf <= min(p.band, n // 2 - 1)
    ic = project(noise * shaping)
    ic /= np.sqrt((np.abs(ic) ** 2).sum())
    w = project(ic) * mask * smoother

    forcing = None
    if p.forcing_amplitude:
        x1 = 2.0 * np.pi * np.arange(n) / n
        x, y, z = np.meshgrid(x1, x1, x1, indexing="ij")
        a = p.forcing_amplitude
        tg = np.stack([a * np.sin(x) * np.cos(y) * np.cos(z),
                       -a * np.cos(x) * np.sin(y) * np.cos(z), np.zeros_like(x)])
        forcing = project(fwd(tg)) * mask * smoother

    def rhs(c):
        adv = inv(smoother * c)
        conv = sum(adv[j] * inv(1j * kvec[j] * c) for j in range(3))
        out = project(-fwd(conv) * mask)
        return out if forcing is None else out + forcing

    decays = [np.exp(-p.nu * ksq * p.dt * gap) for gap in RK_GAPS]
    carry = np.zeros_like(w)
    for _ in range(p.steps):
        for s in range(3):
            if s > 0:
                w *= decays[s - 1]
                carry *= decays[s - 1]
            carry = RK_A[s] * carry + p.dt * rhs(w)
            w += RK_B[s] * carry
        w *= decays[2]
    return w


def energy(coeffs: np.ndarray) -> float:
    return float(0.5 * (np.abs(coeffs) ** 2).sum())


def mismatch(coeffs: np.ndarray, p: RunParams) -> list[str]:
    """Problems found comparing a terminal state with the oracle's."""
    ref = terminal(p)
    problems = []
    e, e_ref = energy(coeffs), energy(ref)
    if not abs(e - e_ref) <= REL_TOL * e_ref:
        problems.append(f"{p}: final energy {e!r} differs from reference {e_ref!r}")
    dist = float(np.sqrt((np.abs(coeffs - ref) ** 2).sum() / (np.abs(ref) ** 2).sum()))
    if not dist <= REL_TOL:
        problems.append(f"{p}: terminal state differs from reference by {dist:.3g} (relative L2)")
    return problems


def l2_distance(p: RunParams, q: RunParams) -> float:
    """L2 distance (k = 0 excluded, already zero) between two reference terminal states."""
    return float(np.sqrt((np.abs(terminal(p) - terminal(q)) ** 2).sum()))
