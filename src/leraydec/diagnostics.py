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

from dataclasses import dataclass

import numpy as np

from . import filtering, spectral
from .filtering import FilterSpec
from .spectral import BOX_VOLUME, SpectralField


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
    """Instantaneous diagnostics, summed over the state's coefficients on the
    grid or on its band (whose kz > 0 coefficients count twice); the
    forcing, if any, shares that layout.  The balance residual is filled in
    by the run loop."""
    density = spectral._mode_inner(state, state)
    h1_sq = float((density * state.modes.k_sq).sum())
    return DiagRecord(
        t=state.t,
        energy=float(0.5 * density.sum()),
        h1_seminorm_sq=h1_sq,
        dissipation=nu * h1_sq,
        input_power=0.0 if forcing is None else float(spectral._mode_inner(forcing, state).sum()),
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


def l2_box_norm(f: SpectralField) -> float:
    """Unnormalized L2 norm over the box, sqrt(int |f|^2 dx)."""
    return float(np.sqrt(BOX_VOLUME) * spectral.hs_norm(f, 0))


def consistency_bound_rhs(v: SpectralField, spec: FilterSpec) -> tuple[float, float]:
    """Analytic bounds on int |tau| dx: the sharp saturated form and the crude one.

    sharp = ||v - D_N(filtered v)||_{L2(box)} ||v||_{L2(box)}, whose first
    factor is delta^{2N+2} ||Lap^{N+1} filtered^{N+1} v||; crude replaces the
    filtered Laplacians by bare ones, delta^{2N+2} ||Lap^{N+1} v|| ||v||.
    """
    err = filtering.deconv_error_field(v, spec)
    sharp = l2_box_norm(err) * l2_box_norm(v)
    m = spec.order + 1
    crude_field = v.with_coeffs(v.coeffs * v.modes.k_sq**m)
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
    """int |tau| dx of tau = D_N(filtered v) v - v v on the dealias band, beside
    its bounds.  tau = -e (x) v with e = v - D_N(filtered v) is rank one, so its
    pointwise Frobenius norm is exactly |e| |v|: the uniform-cell quadrature of
    that product has no difference of near-equal products to cancel."""
    band = spectral.integration_band(v.grid)
    vb = SpectralField(v.grid, band.restrict(v.coeffs), v.t, band)
    e = spectral.to_physical(filtering.deconv_error_field(vb, spec))
    v_phys = spectral.to_physical(vb)
    pointwise = np.sqrt((e**2).sum(axis=0)) * np.sqrt((v_phys**2).sum(axis=0))
    l1 = float(pointwise.sum() * (spectral.TWO_PI / v.grid.n) ** 3)
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
    grid = u.modes
    k_sq = grid.k_sq
    g = filtering.transfer_g(grid.k_mag, spec)
    err_mult = 1.0 - g  # multiplier of u - filtered u
    w2 = spectral._mode_inner(u, u)
    kvecs = grid.wavevectors()

    rows = []
    for order in range(max_beta_order + 1):
        for beta in _BETA_BY_ORDER[order]:
            beta_sq = np.ones_like(k_sq)
            for kj, b in zip(kvecs, beta):
                if b:
                    beta_sq = beta_sq * kj ** (2 * b)
            lhs = np.sqrt((w2 * beta_sq * err_mult**2).sum())
            eq_rhs = spec.delta**2 * np.sqrt((w2 * beta_sq * (k_sq * g) ** 2).sum())
            b_lap = spec.delta**2 * np.sqrt((w2 * beta_sq * k_sq**2).sum())
            b_grad = 0.5 * spec.delta * np.sqrt((w2 * beta_sq * k_sq).sum())
            rows.append(FilterErrorRow(beta, float(lhs), float(eq_rhs), float(b_lap), float(b_grad)))
    return rows


@dataclass
class ModelError:
    l2_final: float
    l2l2: float
    h1_timeavg: float
    cutoff: int  # of the band compared on


def model_error(traj_model, traj_reference) -> ModelError:
    """Trajectory distance in terminal L2, L2-in-time L2, and time-averaged H1.

    Every snapshot is restricted onto spectral.integration_band of the coarser grid
    (`cutoff`); full-grid content outside it, which no run holds, is not compared.
    The two snapshot sequences are walked once, a pair at a time, and a pair
    is released before the next is read, so either may be a generator that
    reads its snapshots as they are needed and one pair is held at a time.
    """
    end = object()
    model, reference = iter(traj_model.snapshots), iter(traj_reference.snapshots)
    ts, l2_sq, h1_sq = [], [], []
    while True:
        a, b = next(model, end), next(reference, end)
        if a is end and b is end:
            break
        if a is end or b is end or not np.isclose(a.t, b.t, rtol=0, atol=1e-12):
            raise ValueError("trajectories have mismatched snapshot times")
        if not ts:
            grid = min(a.grid, b.grid, key=lambda g: g.n)
            band = spectral.integration_band(grid)
            diff = SpectralField(grid, np.empty(band.shape, dtype=np.complex128), band=band)
            other = np.empty_like(diff.coeffs)
        ts.append(a.t)
        band.restrict(a.coeffs, out=diff.coeffs)
        diff.coeffs -= band.restrict(b.coeffs, out=other)
        l2_sq.append(spectral.hs_norm(diff, 0) ** 2)
        h1_sq.append(spectral.hs_norm(diff, 1) ** 2)
        del a, b  # the pair is released before the next one is read
    span = ts[-1] - ts[0]
    l2l2 = float(np.sqrt(np.trapezoid(l2_sq, ts)))
    h1_avg = float(np.sqrt(np.trapezoid(h1_sq, ts) / span)) if span > 0 else float("nan")
    return ModelError(l2_final=float(np.sqrt(l2_sq[-1])), l2l2=l2l2, h1_timeavg=h1_avg, cutoff=band.cutoff)
