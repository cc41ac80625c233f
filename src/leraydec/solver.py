"""Pseudo-spectral time integration of the regularized momentum equation.

The state is the divergence-free spectral velocity w; each right-hand-side
evaluation deconvolves the advecting velocity (for the regularized model;
the plain equations advect with w itself), forms the advective product on
the collocation grid, dealiases, and Leray-projects:

    dw/dt = -P[(u_adv . grad) w] + nu Lap w + f,
    u_adv = D_N(filtered w)  or  w.

The stepper integrates only the modes that can be nonzero and are not
conjugates of others: the state, multipliers and forcing live on the kz >= 0
half of the compact dealias band (spectral.Band, |k|_inf <= n/3 by the
two-thirds rule, spectral.integration_band).  The transform pair takes and
gives band coefficients: spectral.inverse_transform pads the band to the full
grid, the kz < 0 half by conjugate reflection, and forward_transform restricts
back to it.  That restriction is the dealiasing; no mask is applied.

Time stepping is the three-stage low-storage Runge-Kutta of Williamson
combined with an exact integrating factor for the viscous term, so pure
viscous decay is reproduced to rounding and only decaying exponentials ever
multiply the state.  The deconvolution is performed by the van Cittert
iteration, one filter application per order, which keeps the advertised
linear-in-N cost model honest; the closed-form multiplier in `filtering`
is the cross-check.

One object, `_Stepper`, holds a run; `run`, `step` and `nonlinear_term` each
build one, and the model/filter check lives only in `SolverConfig`.
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

    family "nse" advects with the velocity itself, at order 0; family
    "leray_deconv" advects with the order-N deconvolved filtered velocity,
    N in [0, filtering.MAX_ORDER] (order 0 is the Leray-alpha regularization).
    """

    family: str
    order: int = 0

    def __post_init__(self):
        if self.family not in ("nse", "leray_deconv"):
            raise ParameterError(
                "family", f"unknown model family {self.family!r} (expected nse or leray_deconv)"
            )
        cap = filtering.MAX_ORDER if self.is_regularized else 0
        if not 0 <= self.order <= cap:
            raise ParameterError("order", f"deconvolution order must be in [0, {cap}], got {self.order}")

    @classmethod
    def nse(cls) -> "ModelKind":
        return cls("nse")

    @classmethod
    def leray_deconvolution(cls, order: int) -> "ModelKind":
        return cls("leray_deconv", order)

    @property
    def is_regularized(self) -> bool:
        return self.family == "leray_deconv"


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
    snapshot_every: int = 10

    # Fixed, not fields: the advective form (u_adv . grad) w on the two-thirds
    # band; kept readable for code that checks which form and band a run used.
    conv_form = "advective"
    dealias = True

    def __post_init__(self):
        if not self.nu >= 0:
            raise ParameterError("nu", f"viscosity must be >= 0, got {self.nu}")
        check_finite("nu", self.nu)
        if not self.dt > 0:
            raise ParameterError("dt", f"dt must be positive, got {self.dt}")
        check_finite("dt", self.dt)
        step_count(self.t_end, self.dt)  # fail on a bad t_end/dt pair now, not at run time
        if self.model.is_regularized:
            if self.filter is None:
                raise ParameterError("filter", "regularized model requires a filter")
            if self.filter.order != self.model.order:
                raise ParameterError(
                    "filter", f"filter order {self.filter.order} disagrees with model order {self.model.order}"
                )
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
    snapshots: list
    records: list
    stats: RunStats

    @property
    def times(self) -> list:
        return [s.t for s in self.snapshots]

    @property
    def terminal(self) -> SpectralField:
        """The last snapshot on the full grid, padded afresh on every call."""
        return self.snapshots[-1].padded()


def cfl_max_dt(state: SpectralField) -> float:
    """Advisory step limit dx / max |u| (Courant number 1) at the given state."""
    return _cfl_limit(spectral.to_physical(state))


def _cfl_limit(samples: np.ndarray) -> float:
    """dx / max |u| of collocation samples of a velocity, shape (3, n, n, n).

    The samples are scratch: they are squared in place.  The square root is
    taken once, of the largest |u|^2, which gives the bits of the largest
    |u| because a correctly rounded sqrt is monotone.
    """
    np.square(samples, out=samples)
    speed = float(np.sqrt(samples.sum(axis=0).max()))
    dx = spectral.TWO_PI / samples.shape[-1]
    return dx / speed if speed > 0 else float("inf")


class _Stepper:
    """The run object: the advection kernel's multipliers, counters and
    workspace, the integrating factors, the effective forcing, the band state
    `u` with its low-storage carry `p`, the step index `m`, and the run's
    records, snapshots and statistics.

    Coefficients live on the integration band, its kz >= 0 half; only the
    transforms see the full grid, and the inverse one fills the kz < 0 half
    of its input by conjugate reflection.  Real multipliers and the Leray
    projection commute exactly with that reflection, so the half band gives
    the full band's values mode by mode once the transform input is
    completed.  The state starts from `state` restricted to the band, or
    without one from the configured initial condition.

    Nothing full-grid is kept but the workspace, allocated last, once the
    evaluated fields are gone: two complex band buffers, one complex
    (3, n, n, n) transform buffer and two real (3, n, n, n) buffers (the
    advecting-velocity samples and the product accumulator).  The transform
    buffer is the `work` of every spectral.inverse_transform and
    forward_transform call on the band; the gradient samples are read
    straight from its real part.  Between a forward transform's restriction
    and the next inverse transform the transform buffer is idle, and van
    Cittert's scratch is a band-shaped view of its head.  Every evaluation
    runs inside the workspace except the forward transform's input cast:
    on each call numpy.fft.fftn casts the real samples to a fresh complex
    (3, n, n, n) array, a field-sized temporary (12 MiB at 64^3), before it
    transforms them into the buffer.  Each operation keeps the operand order of
    the plain full-grid array expression it replaces, so for a power-of-two
    n results are bit for bit those of an allocate-per-operation evaluation
    (up to the sign of a zero coefficient): the first product is written
    straight into the accumulator, which adding it to zeros would leave
    unchanged.
    """

    def __init__(self, config: SolverConfig, state: SpectralField | None = None):
        self.wall_start = time.perf_counter()
        self.config, self.grid, model = config, config.grid, config.model
        if state is not None and state.grid != self.grid:
            raise ValueError(f"state on {state.grid} given for a run on {self.grid}")
        self.band = spectral.integration_band(self.grid)
        self.stats = RunStats()

        self.g_hat = (
            filtering.transfer_g(self.band.k_mag, config.filter) if model.is_regularized else None
        )
        self.order = model.order
        self.ik = [1j * kj for kj in self.band.wavevectors()]

        gaps = (_RK_C[1] - _RK_C[0], _RK_C[2] - _RK_C[1], 1.0 - _RK_C[2])
        # with nu = 0 every factor is exactly 1.0, so the update keeps every bit;
        # a rate nu k^2 dt that overflows to inf gives the decay's limit, 0
        with np.errstate(over="ignore"):
            self.decays = [np.exp(-config.nu * self.band.k_sq * config.dt * gap) for gap in gaps]

        f = self._prepared(config.forcing, config.filter_forcing)
        self.f_eff = f if np.any(f) else None
        self.forcing = None if self.f_eff is None else SpectralField(self.grid, self.f_eff, band=self.band)
        if state is None:
            self.u = self._prepared(config.ic, config.filter_ic)
        else:
            self.u = self.band.restrict(state.coeffs)
        self.p = np.zeros_like(self.u)
        self.m, self.records, self.snapshots = 0, [], []

        # Allocated last, once _prepared's full-grid evaluations are freed:
        # allocated first, the buffers raised the peak RSS of repeated 64^3
        # runs by 6 MiB.
        full = (3, self.grid.n, self.grid.n, self.grid.n)
        self.cwork = [np.empty(self.band.shape, dtype=np.complex128) for _ in range(2)]
        self.spectrum = np.empty(full, dtype=np.complex128)
        self.vc_scratch = self.spectrum.reshape(-1)[:self.cwork[0].size].reshape(self.band.shape)
        self.rwork = [np.empty(full) for _ in range(2)]

    def _prepared(self, spec: FieldSpec, smooth: bool) -> np.ndarray:
        """Band coefficients of an evaluated field, Leray-projected and, for a
        regularized model when asked, smoothed by h_N."""
        c = self.band.restrict(spec.evaluate(self.grid).coeffs)
        spectral.leray_project_inplace(c, self.band, np.empty_like(c[:2]))
        if self.config.model.is_regularized and smooth:
            c *= filtering.transfer_hn(self.band.k_mag, self.config.filter)
        return c

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
        overwritten by the next call.  Restricting the product spectrum to the
        band is the dealiasing.
        """
        band, spectrum = self.band, self.spectrum
        c0, c1 = self.cwork
        adv_phys, conv = self.rwork
        self.stats.rhs_evals += 1

        spectral.inverse_transform(self.advecting_velocity(w), band, out=adv_phys, work=spectrum)
        for j, ik in enumerate(self.ik):
            np.multiply(ik, w, out=c1)
            dw_j = spectral.inverse_transform(c1, band, work=spectrum)
            if j == 0:
                np.multiply(adv_phys[0], dw_j, out=conv)
            else:
                conv += np.multiply(adv_phys[j], dw_j, out=dw_j)
        out = spectral.forward_transform(conv, band, out=c0, work=spectrum)
        np.negative(out, out=out)
        return spectral.leray_project_inplace(out, band, c1[:2])

    def rhs(self, w: np.ndarray) -> np.ndarray:
        out = self.nonlinear(w)
        if self.f_eff is not None:
            out += self.f_eff
        return out

    def advance(self) -> None:
        """One full RK3 step in place on u; the carry p is overwritten at its
        first stage, so u and m are the whole state between steps."""
        u, p, dt = self.u, self.p, self.config.dt
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
        self.m += 1

    def observe(self) -> None:
        """Record the state at t = m dt, and keep a snapshot of it every
        `snapshot_every` steps (t = 0 among them) and at the last step."""
        t = self.m * self.config.dt
        state = SpectralField(self.grid, self.u, t, self.band)
        rec = diagnostics.energy_record(state, self.config.nu, self.forcing)
        # the energy is a sum over every band coefficient, so a non-finite
        # state shows up in it (as does an overflowing finite one), at t = 0 too
        if not np.isfinite([rec.energy, rec.h1_seminorm_sq, rec.input_power]).all():
            raise BlowUpError(self.m, t, self.trajectory())
        self.records.append(rec)
        if self.m % self.config.snapshot_every == 0 or self.m == self.config.steps:
            self.snapshots.append(state.copy())

    def trajectory(self) -> Trajectory:
        """The run so far: its records, with balance residuals, its snapshots and statistics."""
        diagnostics.attach_balance_residuals(self.records)
        self.stats.steps = max(len(self.records) - 1, 0)
        self.stats.wall_seconds = time.perf_counter() - self.wall_start
        return Trajectory(self.config, self.snapshots, self.records, self.stats)


def nonlinear_term(state: SpectralField, model: ModelKind,
                   filter_spec: FilterSpec | None = None) -> SpectralField:
    """Dealiased, Leray-projected advection term -(u_adv . grad) w.

    The input is restricted to the dealias band first, so the retained
    quadratic interactions are exactly the alias-free ones; with a
    solenoidal advecting velocity the result is L2-orthogonal to the state.
    The term is evaluated by the run object of an unforced inviscid run on
    the state, and returned on the full grid.
    """
    # nu = 0 makes every decay exactly 1, and only advance() reads dt, which
    # this helper never calls: both are placeholders.
    config = SolverConfig(state.grid, model, nu=0.0, dt=1.0, t_end=1.0, filter=filter_spec)
    stepper = _Stepper(config, state=state)
    return SpectralField(state.grid, stepper.nonlinear(stepper.u), state.t, stepper.band).padded()


def step(state: SpectralField, config: SolverConfig) -> SpectralField:
    """Advance a state by one step of the configured scheme."""
    stepper = _Stepper(config, state=state)
    stepper.advance()
    return SpectralField(config.grid, stepper.u, state.t + config.dt, stepper.band).padded()


def run(config: SolverConfig) -> Trajectory:
    """Integrate from the configured initial condition to t_end.

    Diagnostics are recorded every step by diagnostics.energy_record, as
    sums over the band coefficients; spectral snapshots are retained every
    `snapshot_every` steps and always at t = 0 and t_end, held on the band
    (Trajectory.terminal pads the last one).  A non-finite record, the
    initial one included, raises BlowUpError carrying the partial trajectory.
    """
    stepper = _Stepper(config)
    stepper.observe()

    stats = stepper.stats
    stats.cfl_dt_max = _cfl_limit(spectral.inverse_transform(stepper.u, stepper.band, work=stepper.spectrum))
    if config.dt > stats.cfl_dt_max:
        stats.cfl_violated = True
        warnings.warn(
            f"dt = {config.dt:g} exceeds the advisory CFL limit {stats.cfl_dt_max:.3g}",
            CFLAdvisory,
            stacklevel=2,
        )

    while stepper.m < config.steps:
        stepper.advance()
        stepper.observe()
    return stepper.trajectory()
