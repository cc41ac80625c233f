"""Pseudo-spectral time integration of the regularized momentum equation.

The state is the divergence-free spectral velocity w; each right-hand-side
evaluation deconvolves the advecting velocity (for the regularized model;
the plain equations advect with w itself), forms the advective product on
the collocation grid, dealiases, and Leray-projects:

    dw/dt = -P[(u_adv . grad) w] + nu Lap w + f,
    u_adv = D_N(filtered w)  or  w.

Time stepping is the three-stage low-storage Runge-Kutta of Williamson
combined with an exact integrating factor for the viscous term, so pure
viscous decay is reproduced to rounding and only decaying exponentials ever
multiply the state.  The deconvolution is performed by the van Cittert
iteration, one filter application per order, which keeps the advertised
linear-in-N cost model honest; the closed-form multiplier in `filtering`
is the cross-check.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import diagnostics, filtering, spectral
from .diagnostics import DiagRecord
from .fields import FieldSpec
from .filtering import FilterSpec
from .spectral import Grid, SpectralField

# Williamson low-storage RK3 coefficients (carry, weight, abscissa).
_RK_A = (0.0, -5.0 / 9.0, -153.0 / 128.0)
_RK_B = (1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0)
_RK_C = (0.0, 1.0 / 3.0, 3.0 / 4.0)

CONVECTIVE_FORMS = ("advective", "divergence")

_AXES = (1, 2, 3)  # transform axes of a (3, n, n, n) field


class CFLAdvisory(UserWarning):
    """Raised as a warning when dt exceeds the advisory CFL limit."""


class BlowUpError(RuntimeError):
    """Non-finite state detected; carries the step index and partial trajectory."""

    def __init__(self, step: int, t: float, trajectory: "Trajectory"):
        super().__init__(f"solution blew up at step {step} (t = {t:g})")
        self.step = step
        self.t = t
        self.trajectory = trajectory


@dataclass(frozen=True)
class ModelKind:
    """Which momentum equation to integrate.

    family "nse" advects with the velocity itself; family "leray_deconv"
    advects with the order-N deconvolved filtered velocity (order 0 is the
    Leray-alpha regularization).
    """

    family: str
    order: int = 0

    def __post_init__(self):
        if self.family not in ("nse", "leray_deconv"):
            raise ValueError(f"unknown model family {self.family!r}")
        if self.order < 0:
            raise ValueError(f"deconvolution order must be >= 0, got {self.order}")

    @classmethod
    def nse(cls) -> "ModelKind":
        return cls("nse")

    @classmethod
    def leray_deconvolution(cls, order: int) -> "ModelKind":
        return cls("leray_deconv", order)

    @property
    def is_regularized(self) -> bool:
        return self.family == "leray_deconv"


def _check_model(model: ModelKind, filter_spec: FilterSpec | None, conv_form: str) -> None:
    """Reject a model, filter and convective form the advection kernel cannot run."""
    if conv_form not in CONVECTIVE_FORMS:
        raise ValueError(f"conv_form must be one of {CONVECTIVE_FORMS}, got {conv_form!r}")
    if model.is_regularized:
        if filter_spec is None:
            raise ValueError("regularized model requires a filter")
        if filter_spec.order != model.order:
            raise ValueError(
                f"filter order {filter_spec.order} disagrees with model order {model.order}"
            )


@dataclass
class SolverConfig:
    grid: Grid
    model: ModelKind
    nu: float
    dt: float
    t_end: float
    filter: FilterSpec | None = None
    ic: FieldSpec = dataclass_field(default_factory=lambda: FieldSpec(kind="taylor_green"))
    forcing: FieldSpec = dataclass_field(default_factory=lambda: FieldSpec(kind="zero"))
    filter_forcing: bool = True
    filter_ic: bool = True
    dealias: bool = True
    conv_form: str = "advective"
    snapshot_every: int = 10

    def __post_init__(self):
        if self.nu < 0:
            raise ValueError(f"viscosity must be >= 0, got {self.nu}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError(f"t_end must be at least one step, got {self.t_end} < dt {self.dt}")
        _check_model(self.model, self.filter, self.conv_form)
        if self.snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.steps  # fail on a bad t_end/dt pair now, not at run time

    @property
    def steps(self) -> int:
        m = int(round(self.t_end / self.dt))
        if abs(m * self.dt - self.t_end) > 1e-9 * max(1.0, self.t_end):
            raise ValueError(f"t_end {self.t_end} is not an integer multiple of dt {self.dt}")
        return max(m, 1)


@dataclass
class RunStats:
    steps: int = 0
    rhs_evals: int = 0
    filter_applications: int = 0
    deconv_seconds: float = 0.0
    wall_seconds: float = 0.0
    cfl_dt_max: float = float("inf")
    cfl_violated: bool = False


@dataclass
class Trajectory:
    config: SolverConfig
    times: list
    snapshots: list
    records: list
    stats: RunStats

    @property
    def terminal(self) -> SpectralField:
        return self.snapshots[-1]


def cfl_max_dt(state: SpectralField, courant: float = 1.0) -> float:
    """Advisory step limit courant * dx / max |u| at the given state."""
    u = spectral.to_physical(state)
    speed = float(np.sqrt((u**2).sum(axis=0)).max())
    dx = spectral.TWO_PI / state.grid.n
    return courant * dx / speed if speed > 0 else float("inf")


class _Advection:
    """The advection kernel: multipliers, counters and a workspace of its own.

    The workspace is three complex and three real (3, n, n, n) buffers,
    allocated once by `allocate_workspace`; every evaluation runs inside it
    with no field-sized temporaries of its own.  Each operation keeps the
    operand order of the plain array expression it replaces, so results are
    bit for bit those of an allocate-per-operation evaluation.
    """

    def __init__(self, grid: Grid, model: ModelKind, filter_spec: FilterSpec | None,
                 dealias: bool, conv_form: str, stats: RunStats | None = None):
        _check_model(model, filter_spec, conv_form)
        self.grid = grid
        self.conv_form = conv_form
        self.stats = stats if stats is not None else RunStats()

        self.mask = grid.dealias_mask if dealias else grid.negation_closed_mask
        self.g_hat = (
            filtering.transfer_g(grid.k_mag, filter_spec) if model.is_regularized else None
        )
        self.order = model.order if model.is_regularized else 0
        self.ik = [1j * kj for kj in grid.wavevectors()]

    def allocate_workspace(self) -> None:
        # Called last by whoever builds the kernel, while its set-up fields are
        # still held: allocated first, the buffers raised the peak RSS of
        # repeated 64^3 runs by 6 MiB.
        shape = (3, self.grid.n, self.grid.n, self.grid.n)
        self.cwork = [np.empty(shape, dtype=np.complex128) for _ in range(3)]
        self.rwork = [np.empty(shape) for _ in range(3)]

    def advecting_velocity(self, w: np.ndarray) -> np.ndarray:
        """Deconvolved advecting velocity by van Cittert iteration, timed.

        Uses all three complex buffers; the result is the second one.
        """
        if self.g_hat is None:
            return w
        wbar, adv, scratch = self.cwork
        t0 = time.perf_counter()
        np.multiply(self.g_hat, w, out=wbar)
        filtering.van_cittert_iterate(self.g_hat, wbar, adv, scratch, self.order)
        self.stats.deconv_seconds += time.perf_counter() - t0
        self.stats.filter_applications += self.order + 1
        return adv

    def nonlinear(self, w: np.ndarray, project: bool = True) -> np.ndarray:
        """-(u_adv . grad) w, dealiased, optionally Leray-projected.

        The result is a workspace buffer, overwritten by the next call.
        """
        n3 = self.grid.n**3
        c0, c1, c2 = self.cwork
        adv_phys, r1, r2 = self.rwork
        self.stats.rhs_evals += 1

        adv = self.advecting_velocity(w)
        np.multiply(np.fft.ifftn(adv, axes=_AXES, out=c0).real, n3, out=adv_phys)

        if self.conv_form == "advective":
            conv = r2
            conv.fill(0.0)
            for j, ik in enumerate(self.ik):
                np.multiply(ik, w, out=c1)
                np.multiply(np.fft.ifftn(c1, axes=_AXES, out=c2).real, n3, out=r1)
                conv += np.multiply(adv_phys[j], r1, out=r1)
            out = np.fft.fftn(conv, axes=_AXES, out=c0)
            out /= n3
            np.negative(out, out=out)
            free = c1
        else:
            w_phys = r1
            np.multiply(np.fft.ifftn(w, axes=_AXES, out=c2).real, n3, out=w_phys)
            out = c1
            out.fill(0.0)
            for j, ik in enumerate(self.ik):
                flux = np.fft.fftn(np.multiply(adv_phys[j], w_phys, out=r2), axes=_AXES, out=c0)
                flux /= n3
                out -= np.multiply(ik, flux, out=flux)
            free = c2
        out *= self.mask

        if project:
            spectral.leray_project_inplace(out, self.grid, free[:2])
        return out


class _Stepper(_Advection):
    """The advection kernel plus what a run adds: integrating factors,
    effective forcing, initial state and the RK3 update."""

    def __init__(self, config: SolverConfig, stats: RunStats | None = None):
        super().__init__(
            config.grid, config.model, config.filter, config.dealias, config.conv_form, stats
        )
        self.config = config
        g = self.grid

        if config.nu > 0:
            gaps = (_RK_C[1] - _RK_C[0], _RK_C[2] - _RK_C[1], 1.0 - _RK_C[2])
            self.decays = [np.exp(-config.nu * g.k_sq * config.dt * gap) for gap in gaps]
        else:
            self.decays = None

        f_raw = config.forcing.evaluate(g)
        f = self._prepared(f_raw, config.filter_forcing)
        self.f_eff = f if np.any(f) else None
        self.allocate_workspace()

    def _prepared(self, field: SpectralField, smooth: bool) -> np.ndarray:
        """Leray-project an evaluated field, truncate it to the mask and, for
        a regularized model when asked, multiply by the transfer h_N."""
        coeffs = spectral.leray_project(field).coeffs * self.mask
        if self.config.model.is_regularized and smooth:
            coeffs = coeffs * filtering.transfer_hn(self.grid.k_mag, self.config.filter)
        return coeffs

    def initial_state(self) -> SpectralField:
        ic = self.config.ic.evaluate(self.grid)
        coeffs = self._prepared(ic, self.config.filter_ic)
        return SpectralField(self.grid, coeffs, 0.0)

    def rhs(self, w: np.ndarray) -> np.ndarray:
        out = self.nonlinear(w)
        if self.f_eff is not None:
            out += self.f_eff
        return out

    def advance(self, u: np.ndarray, p: np.ndarray) -> None:
        """One full RK3 step in place; p is the low-storage carry buffer."""
        dt = self.config.dt
        for s in range(3):
            if s > 0 and self.decays is not None:
                u *= self.decays[s - 1]
                p *= self.decays[s - 1]
            r = self.rhs(u)
            if s == 0:
                np.multiply(dt, r, out=p)
            else:
                p *= _RK_A[s]
                p += np.multiply(dt, r, out=r)
            u += np.multiply(_RK_B[s], p, out=r)
        if self.decays is not None:
            u *= self.decays[2]


def _advection(state: SpectralField, model: ModelKind, filter_spec: FilterSpec | None,
               dealias: bool, conv_form: str, project: bool) -> np.ndarray:
    """The advection term of the state truncated to the mask, by a fresh kernel."""
    kernel = _Advection(state.grid, model, filter_spec, dealias, conv_form)
    kernel.allocate_workspace()
    return kernel.nonlinear(state.coeffs * kernel.mask, project)


def nonlinear_term(
    state: SpectralField,
    model: ModelKind,
    filter_spec: FilterSpec | None = None,
    dealias: bool = True,
    conv_form: str = "advective",
) -> SpectralField:
    """Dealiased, Leray-projected advection term -(u_adv . grad) w.

    The input is truncated to the dealias band first, so the retained
    quadratic interactions are exactly the alias-free ones; with a
    solenoidal advecting velocity the result is L2-orthogonal to the state.
    """
    adv = _advection(state, model, filter_spec, dealias, conv_form, project=True)
    return state.with_coeffs(adv)


def recover_pressure(
    state: SpectralField,
    model: ModelKind,
    filter_spec: FilterSpec | None = None,
    forcing: SpectralField | None = None,
    dealias: bool = True,
    conv_form: str = "advective",
) -> np.ndarray:
    """Scalar pressure coefficients from the unprojected right-hand side.

    q_hat(k) = -i k . R_hat(k) / |k|^2 where R is the dealiased advection
    term plus forcing before projection; grad q is then exactly the
    non-solenoidal part of R, and q_hat(0) = 0.
    """
    g = state.grid
    rhs = _advection(state, model, filter_spec, dealias, conv_form, project=False)
    if forcing is not None:
        rhs += forcing.coeffs
    q = np.empty((g.n, g.n, g.n), dtype=np.complex128)
    spectral.wavevector_dot(rhs, g, q, np.empty_like(q))
    np.multiply(-1j, q, out=q)
    q /= g._k_sq_safe
    q[0, 0, 0] = 0.0
    return q


def step(state: SpectralField, config: SolverConfig) -> SpectralField:
    """Advance a state by one step of the configured scheme."""
    stepper = _Stepper(config)
    u = state.coeffs * stepper.mask
    p = np.zeros_like(u)
    stepper.advance(u, p)
    return SpectralField(config.grid, u, state.t + config.dt)


def run(config: SolverConfig) -> Trajectory:
    """Integrate from the configured initial condition to t_end.

    Diagnostics are recorded every step; spectral snapshots are retained
    every `snapshot_every` steps and always at t = 0 and t_end.  A
    non-finite state raises BlowUpError carrying the partial trajectory.
    """
    wall_start = time.perf_counter()
    stats = RunStats()
    stepper = _Stepper(config, stats)
    steps = config.steps

    state0 = stepper.initial_state()
    u = state0.coeffs.copy()
    p = np.zeros_like(u)

    f_field = (
        SpectralField(config.grid, stepper.f_eff, 0.0) if stepper.f_eff is not None else None
    )
    records = [diagnostics.energy_record(state0, config.nu, f_field)]
    snapshots = [state0]  # u is the working copy

    stats.cfl_dt_max = cfl_max_dt(state0)
    if config.dt > stats.cfl_dt_max:
        stats.cfl_violated = True
        warnings.warn(
            f"dt = {config.dt:g} exceeds the advisory CFL limit {stats.cfl_dt_max:.3g}",
            CFLAdvisory,
            stacklevel=2,
        )

    def build_trajectory() -> Trajectory:
        diagnostics.attach_balance_residuals(records)
        stats.steps = len(records) - 1
        stats.wall_seconds = time.perf_counter() - wall_start
        return Trajectory(
            config=config,
            times=[s.t for s in snapshots],
            snapshots=snapshots,
            records=records,
            stats=stats,
        )

    for m in range(1, steps + 1):
        stepper.advance(u, p)
        t = m * config.dt
        state = SpectralField(config.grid, u, t)
        record = diagnostics.energy_record(state, config.nu, f_field)
        # the energy is a sum over every coefficient, so a non-finite state
        # shows up in it (as does an overflowing finite one)
        if not np.isfinite([record.energy, record.h1_seminorm_sq, record.input_power]).all():
            raise BlowUpError(m, t, build_trajectory())
        records.append(record)
        if m % config.snapshot_every == 0 or m == steps:
            snapshots.append(state.copy())

    return build_trajectory()
