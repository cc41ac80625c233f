"""Pseudo-spectral time integration of the regularized momentum equation.

The state is the divergence-free spectral velocity w; each right-hand-side
evaluation deconvolves the advecting velocity (for the regularized model;
the plain equations advect with w itself), forms the advective product on
the collocation grid, dealiases, and Leray-projects:

    dw/dt = -P[(u_adv . grad) w] + nu Lap w + f,
    u_adv = D_N(filtered w)  or  w.

The stepper integrates only the modes that can be nonzero: the state,
multipliers and forcing live on the compact dealias band (spectral.Band,
|k|_inf <= n/3 by the two-thirds rule), which is zero-padded to the full
grid for each inverse transform, and each forward transform is truncated
back to it.  That truncation is the dealiasing; no mask is applied.

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
from .spectral import Grid, ParameterError, SpectralField, check_finite

# Williamson low-storage RK3 coefficients (carry, weight, abscissa).
_RK_A = (0.0, -5.0 / 9.0, -153.0 / 128.0)
_RK_B = (1.0 / 3.0, 15.0 / 16.0, 8.0 / 15.0)
_RK_C = (0.0, 1.0 / 3.0, 3.0 / 4.0)

CONVECTIVE_FORMS = ("advective", "divergence")


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
            raise ParameterError(
                "family", f"unknown model family {self.family!r} (expected nse or leray_deconv)"
            )
        if self.order < 0:
            raise ParameterError("order", f"deconvolution order must be >= 0, got {self.order}")

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
        raise ParameterError("conv_form", f"conv_form must be one of {CONVECTIVE_FORMS}, got {conv_form!r}")
    if model.is_regularized:
        if filter_spec is None:
            raise ParameterError("filter", "regularized model requires a filter")
        if filter_spec.order != model.order:
            raise ParameterError(
                "filter", f"filter order {filter_spec.order} disagrees with model order {model.order}"
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
        if not self.nu >= 0:
            raise ParameterError("nu", f"viscosity must be >= 0, got {self.nu}")
        check_finite("nu", self.nu)
        if not self.dt > 0:
            raise ParameterError("dt", f"dt must be positive, got {self.dt}")
        check_finite("dt", self.dt)
        step_count(self.t_end, self.dt)  # fail on a bad t_end/dt pair now, not at run time
        _check_model(self.model, self.filter, self.conv_form)
        if self.snapshot_every < 1:
            raise ParameterError("snapshot_every", "snapshot_every must be >= 1")

    @property
    def steps(self) -> int:
        return step_count(self.t_end, self.dt)


def step_count(t_end: float, dt: float) -> int:
    """Number of steps of size dt to t_end, which must be a whole number of them."""
    if t_end < dt:
        raise ParameterError("t_end", f"t_end must be at least one step, got {t_end} < dt {dt}")
    check_finite("t_end", t_end)
    m = int(round(t_end / dt))
    if abs(m * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ParameterError("t_end", f"t_end {t_end} is not an integer multiple of dt {dt}")
    return m


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


def cfl_max_dt(state: SpectralField) -> float:
    """Advisory step limit dx / max |u| (Courant number 1) at the given state."""
    u = spectral.to_physical(state)
    speed = float(np.sqrt((u**2).sum(axis=0)).max())
    dx = spectral.TWO_PI / state.grid.n
    return dx / speed if speed > 0 else float("inf")


def integration_band(grid: Grid, dealias: bool) -> spectral.Band:
    """The modes the stepper integrates: the dealias band, or with dealiasing
    off every mode whose negation is representable (no Nyquist planes)."""
    return spectral.Band(grid, grid.dealias_cutoff if dealias else grid.n // 2 - 1)


class _Advection:
    """The advection kernel: multipliers, counters and a workspace of its own.

    Coefficients live on the integration band; only the transforms see the
    full grid.  The workspace is three complex band buffers, plus for the
    transforms one zero-padded complex (3, n, n, n) input, one complex
    (3, n, n, n) transform buffer and three real (3, n, n, n) buffers, all
    allocated once by `allocate_workspace`.  Every evaluation runs inside it
    with no field-sized temporaries of its own.  Each operation keeps the
    operand order of the plain full-grid array expression it replaces, so
    results are bit for bit those of an allocate-per-operation evaluation
    (up to the sign of a zero coefficient).
    """

    def __init__(self, grid: Grid, model: ModelKind, filter_spec: FilterSpec | None,
                 dealias: bool, conv_form: str, stats: RunStats | None = None):
        _check_model(model, filter_spec, conv_form)
        self.grid = grid
        self.band = integration_band(grid, dealias)
        self.conv_form = conv_form
        self.stats = stats if stats is not None else RunStats()

        self.g_hat = (
            filtering.transfer_g(self.band.k_mag, filter_spec) if model.is_regularized else None
        )
        self.order = model.order if model.is_regularized else 0
        self.ik = [1j * kj for kj in self.band.wavevectors()]

    def allocate_workspace(self) -> None:
        # Called last by whoever builds the kernel, while its set-up fields are
        # still held: allocated first, the buffers raised the peak RSS of
        # repeated 64^3 runs by 6 MiB.
        full = (3, self.grid.n, self.grid.n, self.grid.n)
        self.cwork = [np.empty(self.band.shape, dtype=np.complex128) for _ in range(3)]
        # written only inside the band by pad, so zero outside it for good
        self.padded = np.zeros(full, dtype=np.complex128)
        self.spectrum = np.empty(full, dtype=np.complex128)
        self.rwork = [np.empty(full) for _ in range(3)]

    def inverse(self, c: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Collocation samples of band coefficients c, into out."""
        self.band.pad(c, self.padded)
        return spectral.inverse_transform(self.padded, out=out, work=self.spectrum)

    def forward(self, samples: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Band coefficients of collocation samples, into out; the rest is dropped."""
        spectral.forward_transform(samples, out=self.spectrum)
        return self.band.truncate(self.spectrum, out)

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
        """-(u_adv . grad) w on the band, optionally Leray-projected.

        w holds band coefficients; the result is a workspace buffer,
        overwritten by the next call.  Truncating the product spectrum to the
        band is the dealiasing.
        """
        c0, c1, c2 = self.cwork
        adv_phys, r1, r2 = self.rwork
        self.stats.rhs_evals += 1

        adv = self.advecting_velocity(w)
        self.inverse(adv, adv_phys)

        if self.conv_form == "advective":
            conv = r2
            conv.fill(0.0)
            for j, ik in enumerate(self.ik):
                np.multiply(ik, w, out=c1)
                self.inverse(c1, r1)
                conv += np.multiply(adv_phys[j], r1, out=r1)
            out = self.forward(conv, c0)
            np.negative(out, out=out)
            free = c1
        else:
            w_phys = r1
            self.inverse(w, w_phys)
            out = c1
            out.fill(0.0)
            for j, ik in enumerate(self.ik):
                np.multiply(adv_phys[j], w_phys, out=r2)
                flux = self.forward(r2, c0)
                out -= np.multiply(ik, flux, out=flux)
            free = c2

        if project:
            spectral.leray_project_inplace(out, self.band, free[:2])
        return out


class _Stepper(_Advection):
    """The advection kernel plus what a run adds: integrating factors,
    effective forcing, initial state and the RK3 update."""

    def __init__(self, config: SolverConfig, stats: RunStats | None = None):
        super().__init__(
            config.grid, config.model, config.filter, config.dealias, config.conv_form, stats
        )
        self.config = config

        if config.nu > 0:
            gaps = (_RK_C[1] - _RK_C[0], _RK_C[2] - _RK_C[1], 1.0 - _RK_C[2])
            self.decays = [np.exp(-config.nu * self.band.k_sq * config.dt * gap) for gap in gaps]
        else:
            self.decays = None

        f = self._prepared(config.forcing.evaluate(self.grid), config.filter_forcing)
        # the full-grid forcing feeds the energy records; f_eff is its band part
        self.forcing = SpectralField(self.grid, f, 0.0) if np.any(f) else None
        self.f_eff = self.band.truncate(f) if self.forcing is not None else None
        self.allocate_workspace()

    def _prepared(self, field: SpectralField, smooth: bool) -> np.ndarray:
        """Leray-project an evaluated field, zero it outside the band and, for
        a regularized model when asked, multiply by the transfer h_N."""
        in_band = self.grid.k_linf <= self.band.cutoff
        coeffs = spectral.leray_project(field).coeffs * in_band
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
        """One full RK3 step in place on band coefficients; p is the low-storage carry."""
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
    """The advection term of the state truncated to the band, by a fresh kernel,
    on the full grid."""
    kernel = _Advection(state.grid, model, filter_spec, dealias, conv_form)
    kernel.allocate_workspace()
    w = kernel.band.truncate(state.coeffs)
    return kernel.band.pad(kernel.nonlinear(w, project))


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
    u = stepper.band.truncate(state.coeffs)
    p = np.zeros_like(u)
    stepper.advance(u, p)
    return SpectralField(config.grid, stepper.band.pad(u), state.t + config.dt)


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
    u = stepper.band.truncate(state0.coeffs)
    p = np.zeros_like(u)

    records = [diagnostics.energy_record(state0, config.nu, stepper.forcing)]
    snapshots = [state0]

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
        # the padded transform input is free between steps
        state = SpectralField(config.grid, stepper.band.pad(u, stepper.padded), t)
        record = diagnostics.energy_record(state, config.nu, stepper.forcing)
        # the energy is a sum over every coefficient, so a non-finite state
        # shows up in it (as does an overflowing finite one)
        if not np.isfinite([record.energy, record.h1_seminorm_sq, record.input_power]).all():
            raise BlowUpError(m, t, build_trajectory())
        records.append(record)
        if m % config.snapshot_every == 0 or m == steps:
            snapshots.append(state.copy())

    return build_trajectory()
