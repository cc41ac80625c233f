"""Energy accounting, consistency-error measurement, and run comparison.

Conventions: norms written ||.|| are the volume-normalized L2 norms computed
by spectral.hs_norm, energy is (1/2)||w||^2, and the energy balance tracked
per step is

    E(t) - E(0) + int_0^t nu ||grad w||^2 - int_0^t (f, w) = residual,

with both time integrals accumulated by the trapezoidal rule on the recorded
step values.  Integrals of pointwise quantities over the box (the consistency
tensor) use unnormalized L2(box) norms, (2 pi)^{3/2} times the normalized
ones, so Cauchy-Schwarz bounds hold with constant one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import filtering, spectral
from .filtering import FilterSpec
from .spectral import BOX_VOLUME, SpectralField

L_BOX = spectral.TWO_PI


@dataclass
class DiagRecord:
    """Per-step energy diagnostics of a run."""

    t: float
    energy: float
    h1_seminorm_sq: float
    dissipation: float
    input_power: float
    balance_residual: float

    FIELDS = ("t", "energy", "h1_seminorm_sq", "dissipation", "input_power", "balance_residual")


def energy_record(state: SpectralField, nu: float, forcing: SpectralField | None) -> DiagRecord:
    """Instantaneous diagnostics; the balance residual is filled in by the run loop."""
    h1_sq = spectral.hs_norm(state, 1) ** 2
    power = 0.0 if forcing is None else spectral.inner(forcing, state)
    return DiagRecord(
        t=state.t,
        energy=spectral.energy(state),
        h1_seminorm_sq=h1_sq,
        dissipation=nu * h1_sq,
        input_power=power,
        balance_residual=0.0,
    )


def attach_balance_residuals(records: list[DiagRecord]) -> list[DiagRecord]:
    """Recompute balance residuals of a record series by trapezoidal accumulation."""
    if not records:
        return records
    e0 = records[0].energy
    acc_diss = 0.0
    acc_power = 0.0
    records[0].balance_residual = 0.0
    for prev, cur in zip(records, records[1:]):
        dt = cur.t - prev.t
        acc_diss += 0.5 * dt * (prev.dissipation + cur.dissipation)
        acc_power += 0.5 * dt * (prev.input_power + cur.input_power)
        cur.balance_residual = cur.energy - e0 + acc_diss - acc_power
    return records


def energy_inequality_monitor(records: list[DiagRecord]) -> float:
    """Largest signed balance residual; positive values mean energy surplus."""
    return max(r.balance_residual for r in records)


def l2_box_norm(f: SpectralField) -> float:
    """Unnormalized L2 norm over the box, sqrt(int |f|^2 dx)."""
    return float(np.sqrt(BOX_VOLUME) * spectral.hs_norm(f, 0))


def tau_tensor(v: SpectralField, spec: FilterSpec) -> tuple[np.ndarray, float]:
    """Consistency tensor D_N(filtered v) v - v v and its integrated magnitude.

    Products are formed pointwise on the collocation grid after truncating
    both factors to the dealias band; the scalar returned is the uniform-cell
    quadrature of the pointwise Frobenius norm over the box.
    """
    grid = v.grid
    vb = spectral.project_pn(v, grid.dealias_cutoff)
    a = filtering.apply_hn(vb, spec)
    v_phys = spectral.to_physical(vb)
    a_phys = spectral.to_physical(a)

    n = grid.n
    tensor = np.empty((3, 3, n, n, n))
    for i in range(3):
        for j in range(3):
            tensor[i, j] = a_phys[i] * v_phys[j] - v_phys[i] * v_phys[j]
    frob = np.sqrt((tensor**2).sum(axis=(0, 1)))
    cell = (spectral.TWO_PI / n) ** 3
    return tensor, float(frob.sum() * cell)


def consistency_bound_rhs(v: SpectralField, spec: FilterSpec) -> tuple[float, float]:
    """Analytic bounds on int |tau| dx: the sharp saturated form and the crude one.

    sharp = ||v - D_N(filtered v)||_{L2(box)} ||v||_{L2(box)}, whose first
    factor is delta^{2N+2} ||Lap^{N+1} filtered^{N+1} v||; crude replaces the
    filtered Laplacians by bare ones, delta^{2N+2} ||Lap^{N+1} v|| ||v||.
    """
    err = filtering.deconv_error_field(v, spec)
    sharp = l2_box_norm(err) * l2_box_norm(v)
    m = spec.order + 1
    crude_field = v.with_coeffs(v.coeffs * v.grid.k_sq**m)
    crude = spec.delta ** (2 * m) * l2_box_norm(crude_field) * l2_box_norm(v)
    return sharp, crude


@dataclass
class ConsistencyReport:
    delta: float
    order: int
    l1_tau: float
    bound_sharp: float
    bound_crude: float

    @property
    def ratio(self) -> float:
        return self.l1_tau / self.bound_sharp if self.bound_sharp else float("nan")


def consistency_report(v: SpectralField, spec: FilterSpec) -> ConsistencyReport:
    _, l1 = tau_tensor(v, spec)
    sharp, crude = consistency_bound_rhs(v, spec)
    return ConsistencyReport(spec.delta, spec.order, l1, sharp, crude)


_BETA_BY_ORDER = {
    0: [(0, 0, 0)],
    1: [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    2: [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)],
}


@dataclass
class FilterErrorRow:
    beta: tuple[int, int, int]
    lhs: float
    eq_rhs: float
    bound_laplacian: float
    bound_gradient: float


def filter_error_bounds_check(
    u: SpectralField, spec: FilterSpec, max_beta_order: int = 2
) -> list[FilterErrorRow]:
    """Derivative-wise filtering-error identities and bounds.

    For each multi-index beta up to the requested order this evaluates

        lhs   = ||d^beta (u - filtered u)||,
        eq    = delta^2 ||Lap d^beta filtered u||     (an identity),
        b_lap = delta^2 ||Lap d^beta u||,
        b_grad= (delta / 2) ||grad d^beta u||,

    all spectrally; lhs == eq to rounding and lhs <= b_lap, lhs <= b_grad.
    """
    if max_beta_order not in (0, 1, 2):
        raise ValueError("beta order up to 2 is supported")
    grid = u.grid
    g = filtering.transfer_g(grid.k_mag, spec)
    err_mult = 1.0 - g  # multiplier of u - filtered u
    w2 = (u.coeffs.real**2 + u.coeffs.imag**2).sum(axis=0)
    kvecs = grid.wavevectors()

    rows = []
    for order in range(max_beta_order + 1):
        for beta in _BETA_BY_ORDER[order]:
            beta_sq = np.ones_like(grid.k_sq)
            for kj, b in zip(kvecs, beta):
                if b:
                    beta_sq = beta_sq * kj ** (2 * b)
            lhs = np.sqrt((w2 * beta_sq * err_mult**2).sum())
            eq_rhs = spec.delta**2 * np.sqrt((w2 * beta_sq * (grid.k_sq * g) ** 2).sum())
            b_lap = spec.delta**2 * np.sqrt((w2 * beta_sq * grid.k_sq**2).sum())
            b_grad = 0.5 * spec.delta * np.sqrt((w2 * beta_sq * grid.k_sq).sum())
            rows.append(FilterErrorRow(beta, float(lhs), float(eq_rhs), float(b_lap), float(b_grad)))
    return rows


def time_average(ts, values, horizon: float | None = None) -> float:
    """Finite-horizon time average by the trapezoidal rule.

    A surrogate for the long-time limit average; the horizon actually used
    is always part of any report built on this.
    """
    ts = np.asarray(ts, dtype=np.float64)
    vals = np.asarray(values, dtype=np.float64)
    if ts.ndim != 1 or ts.shape != vals.shape or ts.size < 2:
        raise ValueError("need matching 1-d arrays with at least two samples")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("sample times must be strictly increasing")
    t_end = ts[-1] if horizon is None else float(horizon)
    if t_end <= ts[0] or t_end > ts[-1] + 1e-12 * max(1.0, abs(ts[-1])):
        raise ValueError(f"horizon {t_end} is outside the recorded interval [{ts[0]}, {ts[-1]}]")
    t_end = min(t_end, ts[-1])
    m = int(np.searchsorted(ts, t_end, side="right"))
    tt = ts[:m]
    vv = vals[:m]
    if tt[-1] < t_end:
        v_end = np.interp(t_end, ts, vals)
        tt = np.append(tt, t_end)
        vv = np.append(vv, v_end)
    return float(np.trapezoid(vv, tt) / (tt[-1] - tt[0]))


@dataclass
class ModelError:
    l2_final: float
    l2l2: float
    h1_timeavg: float


def model_error(traj_model, traj_reference) -> ModelError:
    """Trajectory distance in terminal L2, L2-in-time L2, and time-averaged H1."""
    if traj_model.snapshots[0].grid != traj_reference.snapshots[0].grid:
        raise ValueError("trajectories live on different grids")
    ta = [s.t for s in traj_model.snapshots]
    tb = [s.t for s in traj_reference.snapshots]
    if len(ta) != len(tb) or not np.allclose(ta, tb, rtol=0, atol=1e-12):
        raise ValueError("trajectories have mismatched snapshot times")

    l2_sq = []
    h1_sq = []
    for a, b in zip(traj_model.snapshots, traj_reference.snapshots):
        diff = a.with_coeffs(a.coeffs - b.coeffs)
        l2_sq.append(spectral.hs_norm(diff, 0) ** 2)
        h1_sq.append(spectral.hs_norm(diff, 1) ** 2)
    ts = np.asarray(ta)
    span = ts[-1] - ts[0]
    l2l2 = float(np.sqrt(np.trapezoid(l2_sq, ts)))
    h1_avg = float(np.sqrt(np.trapezoid(h1_sq, ts) / span)) if span > 0 else float("nan")
    return ModelError(l2_final=float(np.sqrt(l2_sq[-1])), l2l2=l2l2, h1_timeavg=h1_avg)


@dataclass
class ReynoldsReport:
    """Large-scale flow characterization and the consistency-scaling comparison.

    measured_tau is the time average of (1/(U^2 L^3)) int |tau_0| dx; the
    scaling estimate is (delta / L) sqrt(Re) / sqrt(U).  Both are reported
    side by side without a verdict, together with the averaging horizon.
    """

    length: float
    velocity: float
    reynolds: float
    dissipation_avg: float
    measured_tau: float
    scaling_estimate: float
    horizon: float


def reynolds_report(traj, nu: float, delta: float, horizon: float | None = None) -> ReynoldsReport:
    ts = [r.t for r in traj.records]
    e2 = [2.0 * r.energy for r in traj.records]
    diss = [r.dissipation for r in traj.records]
    u_scale = float(np.sqrt(time_average(ts, e2, horizon)))
    eps_avg = time_average(ts, diss, horizon)
    reynolds = u_scale * L_BOX / nu

    spec0 = FilterSpec(delta=delta, order=0)
    snap_ts = [s.t for s in traj.snapshots]
    tau_vals = [tau_tensor(s, spec0)[1] for s in traj.snapshots]
    tau_norm = [tv / (u_scale**2 * BOX_VOLUME) for tv in tau_vals]
    h = snap_ts[-1] if horizon is None else min(horizon, snap_ts[-1])
    measured = time_average(snap_ts, tau_norm, h)
    estimate = (delta / L_BOX) * np.sqrt(reynolds) / np.sqrt(u_scale)
    return ReynoldsReport(
        length=L_BOX,
        velocity=u_scale,
        reynolds=reynolds,
        dissipation_avg=eps_avg,
        measured_tau=measured,
        scaling_estimate=float(estimate),
        horizon=float(h if horizon is None else horizon),
    )
