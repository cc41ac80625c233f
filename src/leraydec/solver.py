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


def _check_model(model: ModelKind, filter_spec: FilterSpec | None) -> None:
    """Reject a model and filter the advection kernel cannot run."""
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
    snapshot_every: int = 10

    # The convective form, fixed: the advective (u_adv . grad) w.  Not a
    # field; kept readable for code that checks which form a run used.
    conv_form = "advective"

    def __post_init__(self):
        if not self.nu >= 0:
            raise ParameterError("nu", f"viscosity must be >= 0, got {self.nu}")
        check_finite("nu", self.nu)
        if not self.dt > 0:
            raise ParameterError("dt", f"dt must be positive, got {self.dt}")
        check_finite("dt", self.dt)
        step_count(self.t_end, self.dt)  # fail on a bad t_end/dt pair now, not at run time
        _check_model(self.model, self.filter)
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
    ratio = t_end / dt
    if not np.isfinite(ratio):
        raise ParameterError("t_end", f"t_end {t_end} is more steps of dt {dt} than a float can count")
    m = int(round(ratio))
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
        """The last snapshot on the full grid, padded afresh on every call."""
        return self.snapshots[-1].padded()


def cfl_max_dt(state: SpectralField) -> float:
    """Advisory step limit dx / max |u| (Courant number 1) at the given state."""
    return _cfl_limit(spectral.to_physical(state))


def _cfl_limit(samples: np.ndarray) -> float:
    """dx / max |u| of collocation samples of a velocity, shape (3, n, n, n)."""
    speed = float(np.sqrt((samples**2).sum(axis=0)).max())
    dx = spectral.TWO_PI / samples.shape[-1]
    return dx / speed if speed > 0 else float("inf")


def integration_band(grid: Grid, dealias: bool) -> spectral.Band:
    """The modes the stepper integrates: the dealias band, or with dealiasing
    off every mode whose negation is representable (no Nyquist planes)."""
    return spectral.Band(grid, grid.dealias_cutoff if dealias else grid.n // 2 - 1)


class _Advection:
    """The advection kernel: multipliers, counters and a workspace of its own.

    Coefficients live on the integration band; only the transforms see the
    full grid.  The workspace is two complex band buffers, one complex
    (3, n, n, n) transform buffer and two real (3, n, n, n) buffers (the
    advecting-velocity samples and the product accumulator), all allocated
    once by `allocate_workspace`.  Each inverse transform zero-fills the
    transform buffer, pads the band into it and transforms it in place; the
    gradient samples are read straight from its real part.  Between a
    forward transform's truncation and the next inverse transform the
    transform buffer is idle, and van Cittert's scratch is a band-shaped
    view of its head.  Every
    evaluation runs inside the workspace with no field-sized temporaries of
    its own.  Each operation keeps the operand order of the plain full-grid
    array expression it replaces, so for a power-of-two n results are bit
    for bit those of an allocate-per-operation evaluation (up to the sign of
    a zero coefficient).
    """

    def __init__(self, grid: Grid, model: ModelKind, filter_spec: FilterSpec | None,
                 dealias: bool, stats: RunStats | None = None):
        _check_model(model, filter_spec)
        self.grid = grid
        self.band = integration_band(grid, dealias)
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
        self.cwork = [np.empty(self.band.shape, dtype=np.complex128) for _ in range(2)]
        self.spectrum = np.empty(full, dtype=np.complex128)
        self.vc_scratch = self.spectrum.reshape(-1)[:self.cwork[0].size].reshape(self.band.shape)
        self.rwork = [np.empty(full) for _ in range(2)]

    def inverse(self, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Collocation samples of band coefficients c, into out or, without
        it, as the real part of the transform buffer (a view that the next
        transform overwrites)."""
        self.spectrum.fill(0.0)
        self.band.pad(c, self.spectrum)
        return spectral.inverse_transform(self.spectrum, out=out, work=self.spectrum)

    def forward(self, samples: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Band coefficients of collocation samples, into out; the rest is dropped."""
        spectral.forward_transform(samples, out=self.spectrum)
        return self.band.truncate(self.spectrum, out)

    def advecting_velocity(self, w: np.ndarray) -> np.ndarray:
        """Deconvolved advecting velocity by van Cittert iteration, timed.

        The filtered velocity goes into the second complex buffer, the result
        into the first, and the scratch is the idle transform buffer's head.
        """
        if self.g_hat is None:
            return w
        adv, wbar = self.cwork
        t0 = time.perf_counter()
        np.multiply(self.g_hat, w, out=wbar)
        filtering.van_cittert_iterate(self.g_hat, wbar, adv, self.vc_scratch, self.order)
        self.stats.deconv_seconds += time.perf_counter() - t0
        self.stats.filter_applications += self.order + 1
        return adv

    def nonlinear(self, w: np.ndarray) -> np.ndarray:
        """-P[(u_adv . grad) w] on the band, P the Leray projection.

        w holds band coefficients; the result is a workspace buffer,
        overwritten by the next call.  Truncating the product spectrum to the
        band is the dealiasing.
        """
        c0, c1 = self.cwork
        adv_phys, conv = self.rwork
        self.stats.rhs_evals += 1

        self.inverse(self.advecting_velocity(w), adv_phys)
        conv.fill(0.0)
        for j, ik in enumerate(self.ik):
            np.multiply(ik, w, out=c1)
            dw_j = self.inverse(c1)
            conv += np.multiply(adv_phys[j], dw_j, out=dw_j)
        out = self.forward(conv, c0)
        np.negative(out, out=out)
        return spectral.leray_project_inplace(out, self.band, c1[:2])


class _Stepper(_Advection):
    """The advection kernel plus what a run adds: integrating factors,
    effective forcing, the band state `u` with its low-storage carry `p`,
    and the RK3 update.

    The state starts from `state` restricted to the band, or without one from
    the configured initial condition.  Nothing full-grid is kept but the
    transform workspace, allocated last, once the evaluated fields are gone.
    """

    def __init__(self, config: SolverConfig, stats: RunStats | None = None,
                 state: SpectralField | None = None):
        super().__init__(config.grid, config.model, config.filter, config.dealias, stats)
        self.config = config

        gaps = (_RK_C[1] - _RK_C[0], _RK_C[2] - _RK_C[1], 1.0 - _RK_C[2])
        # with nu = 0 every factor is exactly 1.0, so the update keeps every bit
        self.decays = [np.exp(-config.nu * self.band.k_sq * config.dt * gap) for gap in gaps]

        f = self._prepared(config.forcing, config.filter_forcing)
        self.f_eff = f if np.any(f) else None
        if state is None:
            self.u = self._prepared(config.ic, config.filter_ic)
        else:
            self.u = self.band.restrict(state)
        self.p = np.zeros_like(self.u)
        self.allocate_workspace()

    def _prepared(self, spec: FieldSpec, smooth: bool) -> np.ndarray:
        """Band coefficients of an evaluated field, Leray-projected and, for a
        regularized model when asked, smoothed by h_N."""
        c = self.band.truncate(spec.evaluate(self.grid).coeffs)
        spectral.leray_project_inplace(c, self.band, np.empty_like(c[:2]))
        if self.config.model.is_regularized and smooth:
            c *= filtering.transfer_hn(self.band.k_mag, self.config.filter)
        return c

    def rhs(self, w: np.ndarray) -> np.ndarray:
        out = self.nonlinear(w)
        if self.f_eff is not None:
            out += self.f_eff
        return out

    def advance(self, u: np.ndarray, p: np.ndarray) -> None:
        """One full RK3 step in place on band coefficients; p is the low-storage carry."""
        dt = self.config.dt
        for s in range(3):
            if s > 0:
                u *= self.decays[s - 1]
                p *= self.decays[s - 1]
            r = self.rhs(u)
            if s == 0:
                np.multiply(dt, r, out=p)
            else:
                p *= _RK_A[s]
                p += np.multiply(dt, r, out=r)
            u += np.multiply(_RK_B[s], p, out=r)
        u *= self.decays[2]


def nonlinear_term(
    state: SpectralField,
    model: ModelKind,
    filter_spec: FilterSpec | None = None,
    dealias: bool = True,
) -> SpectralField:
    """Dealiased, Leray-projected advection term -(u_adv . grad) w.

    The input is restricted to the dealias band first, so the retained
    quadratic interactions are exactly the alias-free ones; with a
    solenoidal advecting velocity the result is L2-orthogonal to the state.
    The term is evaluated by a fresh kernel and returned on the full grid.
    """
    kernel = _Advection(state.grid, model, filter_spec, dealias)
    kernel.allocate_workspace()
    w = kernel.band.restrict(state)
    return SpectralField(state.grid, kernel.band.pad(kernel.nonlinear(w)), state.t)


def step(state: SpectralField, config: SolverConfig) -> SpectralField:
    """Advance a state by one step of the configured scheme."""
    stepper = _Stepper(config, state=state)
    stepper.advance(stepper.u, stepper.p)
    return SpectralField(config.grid, stepper.band.pad(stepper.u), state.t + config.dt)


def run(config: SolverConfig) -> Trajectory:
    """Integrate from the configured initial condition to t_end.

    Diagnostics are recorded every step by diagnostics.energy_record, as
    sums over the band coefficients; spectral snapshots are retained every
    `snapshot_every` steps and always at t = 0 and t_end, held on the band
    (Trajectory.terminal pads the last one).  A non-finite state raises
    BlowUpError carrying the partial trajectory.
    """
    wall_start = time.perf_counter()
    stats = RunStats()
    stepper = _Stepper(config, stats)
    band, u, p = stepper.band, stepper.u, stepper.p
    steps = config.steps

    forcing = None if stepper.f_eff is None else SpectralField(config.grid, stepper.f_eff, band=band)

    def on_band(t: float) -> SpectralField:
        return SpectralField(config.grid, u, t, band)

    def record(t: float) -> DiagRecord:
        return diagnostics.energy_record(on_band(t), config.nu, forcing)

    records = [record(0.0)]
    snapshots = [on_band(0.0).copy()]

    stats.cfl_dt_max = _cfl_limit(stepper.inverse(u))
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
        rec = record(t)
        # the energy is a sum over every band coefficient, so a non-finite
        # state shows up in it (as does an overflowing finite one)
        if not np.isfinite([rec.energy, rec.h1_seminorm_sq, rec.input_power]).all():
            raise BlowUpError(m, t, build_trajectory())
        records.append(rec)
        if m % config.snapshot_every == 0 or m == steps:
            snapshots.append(on_band(t).copy())

    return build_trajectory()
