"""Parameter sweeps: convergence rates, cutoff tables, cost scaling.

A study runs a sweep, collects raw tables, and where meaningful fits a
log-log rate by least squares.  Rates are asymptotic statements, so the
default fit window is the three finest sweep points; the raw table is always
retained alongside the fit, and fits are flagged instead of silently
truncated when errors sit at the integrator floor or degenerate to zero.

The three rate studies (deconv_rate, delta_rate, consistency_rate) are each
a `measure(delta, order)` closure run by one kernel, `_rate_study`, which
owns the sweep, the `<name>_order_<N>` table, the fit against delta^(2N+2)
and the flags; it is the only caller of `fit_rate`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics, fields, filtering, solver, spectral
from .filtering import DEFAULT_MAX_ORDER, FilterSpec
from .solver import ModelKind, SolverConfig


@dataclass
class RateFit:
    slope: float
    intercept: float
    expected: float
    window: tuple[float, ...]
    degenerate: bool = False
    floor_limited: bool = False

    @property
    def deviation(self) -> float:
        return abs(self.slope - self.expected)


@dataclass
class StudySpec:
    """Sweep request shared by all studies; unused knobs are ignored per kind."""

    kind: str
    deltas: tuple = ()
    orders: tuple = ()
    delta: float = 0.5
    fit_window: int | None = None
    floor: float = 1e-12
    base: SolverConfig | None = None
    grid_n: int = 16
    k_max: float = 10.0
    k_points: int = 201
    smoother_orders: tuple = (0, 10, 50)

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise ValueError(f"unknown study kind {self.kind!r}, expected one of {STUDY_KINDS}")
        ds = tuple(float(d) for d in self.deltas)
        if not all(np.isfinite(d) and d >= 0 for d in ds):
            raise spectral.ParameterError("deltas", f"deltas must be finite and >= 0, got {ds}")
        if ds and any(b >= a for a, b in zip(ds, ds[1:])):
            raise spectral.ParameterError("deltas", "deltas must be strictly decreasing")
        if self.kind in ("deconv_rate", "delta_rate", "consistency_rate") and 0 < len(ds) < 3:
            raise spectral.ParameterError("deltas", "a rate fit needs at least three sweep points")
        if self.fit_window is not None and self.fit_window < 3:
            raise spectral.ParameterError("fit_window", f"fit_window must be >= 3, got {self.fit_window}")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise spectral.ParameterError("delta", f"delta must be positive and finite, got {self.delta}")
        if not (np.isfinite(self.floor) and self.floor >= 0):
            raise spectral.ParameterError("floor", f"floor must be finite and >= 0, got {self.floor}")
        for name in ("orders", "smoother_orders"):
            orders = tuple(int(n) for n in getattr(self, name))
            if any(n < 0 or n > DEFAULT_MAX_ORDER for n in orders):  # FilterSpec's cap, before any run
                raise spectral.ParameterError(name, f"{name} must be in [0, {DEFAULT_MAX_ORDER}], got {orders}")
            setattr(self, name, orders)
        spectral.check_grid_size("grid_n", self.grid_n)  # Grid's rule, before any grid is built
        if not (np.isfinite(self.k_max) and self.k_max > 0):
            raise spectral.ParameterError("k_max", f"k_max must be positive and finite, got {self.k_max}")
        if self.k_points < 1:
            raise spectral.ParameterError("k_points", f"k_points must be >= 1, got {self.k_points}")
        self.deltas = ds


@dataclass
class StudyReport:
    kind: str
    params: dict
    tables: dict
    fits: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def fit_rate(
    deltas,
    errors,
    expected: float,
    window: int | None = None,
    floor: float = 0.0,
) -> RateFit:
    """Least-squares slope of log(error) against log(delta).

    Points whose error differs from the next finer one by less than ten
    times the floor are considered floor-limited and dropped from the fit;
    a slope is only ever fitted through at least three points.
    """
    ds = np.asarray(deltas, dtype=np.float64)
    es = np.asarray(errors, dtype=np.float64)
    if ds.size != es.size or ds.size < 3:
        raise ValueError("a rate fit needs at least three sweep points")
    if np.any(np.diff(ds) >= 0):
        raise ValueError("deltas must be strictly decreasing")

    if not np.all(np.isfinite(es)) or np.any(es <= 0):
        return RateFit(float("nan"), float("nan"), expected, (), degenerate=True)

    floor_limited = False
    usable = ds.size
    if floor > 0:
        for i in range(ds.size - 1):
            if abs(es[i] - es[i + 1]) < 10.0 * floor:
                usable = i + 1
                floor_limited = True
                break
    if usable < 3:
        return RateFit(
            float("nan"), float("nan"), expected, tuple(ds[:usable]),
            degenerate=True, floor_limited=True,
        )

    w = min(window if window is not None else 3, usable)
    w = max(w, 3)
    sel_d = ds[usable - w : usable]
    sel_e = es[usable - w : usable]
    slope, intercept = np.polyfit(np.log(sel_d), np.log(sel_e), 1)
    return RateFit(
        float(slope), float(intercept), expected, tuple(sel_d), floor_limited=floor_limited
    )


def _rate_study(kind, spec, orders, deltas, measure, floor, params, metadata) -> StudyReport:
    """Sweep delta per order; fit the first measured quantity against delta^(2N+2).

    measure(delta, order) returns {name: value}; each name becomes the
    column `<name>_order_<N>`, in the order measure returns them.  Fits
    that are degenerate or floor-limited are flagged by their order key.
    """
    table: dict = {"delta": list(deltas)}
    fits = {}
    for order in orders:
        rows = [measure(d, order) for d in deltas]
        columns = {name: [row[name] for row in rows] for name in rows[0]}
        table.update((f"{name}_order_{order}", col) for name, col in columns.items())
        fits[f"order_{order}"] = fit_rate(
            deltas, next(iter(columns.values())), expected=2.0 * (order + 1),
            window=spec.fit_window, floor=floor,
        )
    flags = [k for k, f in fits.items() if f.degenerate or f.floor_limited]
    return StudyReport(kind=kind, params=params, tables={"main": table}, fits=fits,
                       flags=flags, metadata=metadata)


def deconv_rate_study(spec: StudySpec) -> StudyReport:
    """Deconvolution error of the single-mode field k = (1, 0, 0) across delta, per order.

    The error is measured end to end: filter, then iterative van Cittert
    deconvolution, then the L2 norm of the difference from the original.
    """
    mode = (1, 0, 0)
    phi = fields.single_mode(spectral.Grid(spec.grid_n), mode)
    orders = spec.orders or (0, 1, 2)
    deltas = spec.deltas or (0.2, 0.1, 0.05, 0.025)

    def measure(d, order):
        fspec = FilterSpec(delta=d, order=order)
        recovered = filtering.van_cittert(filtering.apply_filter(phi, fspec), fspec)
        return {"error": spectral.hs_norm(phi.with_coeffs(phi.coeffs - recovered.coeffs), 0)}

    params = {"mode": mode, "orders": orders, "deltas": deltas, "grid_n": spec.grid_n}
    return _rate_study("deconv_rate", spec, orders, deltas, measure, 0.0, params,
                       {"field": "single_mode"})


def _nse_reference(base: SolverConfig) -> SolverConfig:
    return replace(base, model=ModelKind.nse(), filter=None)


def _model_config(base: SolverConfig, delta: float, order: int) -> SolverConfig:
    return replace(
        base,
        model=ModelKind.leray_deconvolution(order),
        filter=FilterSpec(delta=delta, order=order),
    )


def _reference(spec: StudySpec, study: str):
    """The NSE reference trajectory of the study's base scenario, and its metadata."""
    base = spec.base
    if base is None:
        raise ValueError(f"{study} requires a base SolverConfig")
    metadata = {"n": base.grid.n, "nu": base.nu, "dt": base.dt, "t_end": base.t_end}
    return solver.run(_nse_reference(base)), metadata


def delta_rate_study(spec: StudySpec) -> StudyReport:
    """Model-vs-reference trajectory error across filter radii at fixed order.

    Requires a base SolverConfig describing a smooth, well-resolved scenario.
    delta = 0 is honored as an exact pass-through: the regularized run
    degenerates to the reference path and the error row is zero, which the
    fit then reports as degenerate rather than crashing.
    """
    orders = spec.orders or (0,)
    deltas = spec.deltas or (0.4, 0.2, 0.1)
    reference, metadata = _reference(spec, "delta_rate_study")
    wall = {}

    def measure(d, order):
        traj = solver.run(_nse_reference(spec.base) if d == 0 else _model_config(spec.base, d, order))
        err = diagnostics.model_error(traj, reference)
        wall[f"order_{order}_delta_{d:g}"] = traj.stats.wall_seconds
        return {"l2l2": err.l2l2, "l2_final": err.l2_final, "h1_avg": err.h1_timeavg}

    return _rate_study("delta_rate", spec, orders, deltas, measure, spec.floor,
                       {"orders": orders, "deltas": deltas}, {**metadata, "wall_seconds": wall})


def deconv_unit_cost(grid: spectral.Grid, delta: float) -> float:
    """Wall-clock cost of one van Cittert iteration as the stepper runs it.

    The kernel is timed on the stepper's band-shaped arrays
    (solver.integration_band) with preallocated buffers, so the unit matches
    what RunStats.deconv_seconds accumulates.  Measured as a difference of
    order-8 and order-0 applications so setup cost cancels; the minimum
    over 7 repeats rejects scheduler noise.
    """
    order_hi, repeats = 8, 7
    band = solver.integration_band(grid)
    g_hat = filtering.transfer_g(band.k_mag, FilterSpec(delta=delta))
    fbar = g_hat * band.truncate(fields.random_solenoidal(grid, seed=973).coeffs)
    out, scratch = np.empty_like(fbar), np.empty_like(fbar)

    def best(order: int) -> float:
        t_best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            filtering.van_cittert_iterate(g_hat, fbar, out, scratch, order)
            t_best = min(t_best, time.perf_counter() - t0)
        return t_best

    best(order_hi)  # warm the caches before timing
    return max((best(order_hi) - best(0)) / order_hi, 1e-9)


def n_limit_study(spec: StudySpec) -> StudyReport:
    """Model error and cost against deconvolution order at fixed delta.

    Reports the trajectory error to the same-grid reference per order plus
    the exact filter-application counts, the deconvolution wall time, and a
    microbenchmarked per-iteration unit cost for the cost-model comparison.
    """
    orders = spec.orders or (0, 1, 2, 4, 8)
    reference, metadata = _reference(spec, "n_limit_study")

    table: dict = {
        "order": list(orders),
        "l2l2": [],
        "l2_final": [],
        "wall_seconds": [],
        "deconv_seconds": [],
        "filter_applications": [],
        "rhs_evals": [],
    }
    for order in orders:
        traj = solver.run(_model_config(spec.base, spec.delta, order))
        err = diagnostics.model_error(traj, reference)
        table["l2l2"].append(err.l2l2)
        table["l2_final"].append(err.l2_final)
        table["wall_seconds"].append(traj.stats.wall_seconds)
        table["deconv_seconds"].append(traj.stats.deconv_seconds)
        table["filter_applications"].append(traj.stats.filter_applications)
        table["rhs_evals"].append(traj.stats.rhs_evals)

    unit = deconv_unit_cost(spec.base.grid, spec.delta)
    errs = table["l2l2"]
    flags = []
    if not all(b < a for a, b in zip(errs, errs[1:])):
        flags.append("errors_not_strictly_decreasing")

    return StudyReport(
        kind="n_limit",
        params={"orders": orders, "delta": spec.delta},
        tables={"main": table},
        flags=flags,
        metadata={**metadata, "unit_filter_seconds": unit},
    )


def cutoff_table_study(spec: StudySpec) -> StudyReport:
    """Cutoff wavenumber of the smoother across orders and filter radii."""
    orders = spec.orders or tuple(range(0, 51, 5))
    deltas = spec.deltas or (1.0, 0.5, 0.25)
    table: dict = {"order": list(orders)}
    for d in deltas:
        kc = [filtering.cutoff_frequency(FilterSpec(delta=d, order=o)) for o in orders]
        table[f"k_c_delta_{d:g}"] = kc

    flags = []
    for d in deltas:
        kc = table[f"k_c_delta_{d:g}"]
        if any(b < a for a, b in zip(kc, kc[1:])):
            flags.append(f"not_monotone_in_order_delta_{d:g}")
    for o_idx in range(len(orders)):
        row = [table[f"k_c_delta_{d:g}"][o_idx] for d in deltas]
        if any(b < a for a, b in zip(row, row[1:])):
            flags.append(f"not_monotone_in_inverse_delta_order_{orders[o_idx]}")

    return StudyReport(
        kind="cutoff_table",
        params={"orders": orders, "deltas": deltas},
        tables={"main": table},
        flags=flags,
    )


def consistency_rate_study(spec: StudySpec) -> StudyReport:
    """Consistency-tensor magnitude against delta on a frozen analytic field."""
    grid = spectral.Grid(spec.grid_n)
    v = fields.taylor_green(grid)
    orders = spec.orders or (0, 1)
    deltas = spec.deltas or (0.2, 0.1, 0.05, 0.025)
    violated = []

    def measure(d, order):
        rep = diagnostics.consistency_report(v, FilterSpec(delta=d, order=order))
        if rep.l1_tau > rep.bound_sharp * (1.0 + 1e-12):
            violated.append((d, order))
        return {"l1_tau": rep.l1_tau, "bound_sharp": rep.bound_sharp,
                "bound_crude": rep.bound_crude, "ratio": rep.ratio}

    params = {"orders": orders, "deltas": deltas, "grid_n": spec.grid_n}
    report = _rate_study("consistency_rate", spec, orders, deltas, measure, 0.0, params,
                         {"field": "taylor_green"})
    if violated:
        report.flags.insert(0, "bound_violated")
    return report


def transfer_figures_study(spec: StudySpec) -> StudyReport:
    """Transfer-function curves on the rescaled axis (delta = 1).

    Produces one table for the deconvolution multipliers next to the exact
    inverse-filter curve 1 + k^2, and one for the smoother multipliers at
    representative orders.
    """
    ks = np.linspace(0.0, spec.k_max, spec.k_points)
    orders = spec.orders or (0, 1, 2)
    deconv: dict = {"k": ks.tolist()}
    for order in orders:
        fs = FilterSpec(delta=1.0, order=order)
        deconv[f"d_hat_order_{order}"] = filtering.transfer_dn(ks, fs).tolist()
    deconv["d_exact"] = filtering.transfer_exact(ks, FilterSpec(delta=1.0)).tolist()

    smoother: dict = {"k": ks.tolist()}
    for order in spec.smoother_orders:
        fs = FilterSpec(delta=1.0, order=order)
        smoother[f"h_hat_order_{order}"] = filtering.transfer_hn(ks, fs).tolist()

    return StudyReport(
        kind="transfer_figures",
        params={
            "orders": orders,
            "smoother_orders": spec.smoother_orders,
            "k_max": spec.k_max,
            "k_points": spec.k_points,
        },
        tables={"deconvolution": deconv, "smoother": smoother},
    )


_STUDY_RUNNERS = {
    "deconv_rate": deconv_rate_study,
    "delta_rate": delta_rate_study,
    "n_limit": n_limit_study,
    "cutoff_table": cutoff_table_study,
    "consistency_rate": consistency_rate_study,
    "transfer_figures": transfer_figures_study,
}
STUDY_KINDS = tuple(_STUDY_RUNNERS)


def run_study(spec: StudySpec) -> StudyReport:
    return _STUDY_RUNNERS[spec.kind](spec)
