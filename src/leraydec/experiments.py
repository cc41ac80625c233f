"""Parameter sweeps: convergence rates, cutoff tables, cost scaling.

A study runs a sweep, collects raw tables, and where meaningful fits a
log-log rate by least squares.  Rates are asymptotic statements, so the
default fit window is the three finest sweep points; the raw table is always
retained alongside the fit, and fits are flagged instead of silently
shortened when errors sit at the integrator floor or degenerate to zero.

The three rate studies (deconv_rate, delta_rate, consistency_rate) are each
a `measure(delta, order)` closure run by one kernel, `_rate_study`, which
owns the sweep, the `<name>_order_<N>` table, the fit against delta^(2N+2)
and the flags; it is the only caller of `fit_rate`.  The two trajectory
studies (delta_rate, n_limit) run each model point through
`_trajectory_point`, and every study turns its rows into table columns
through `_columns`.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import diagnostics, fields, filtering, solver, spectral
from .filtering import MAX_ORDER, FilterSpec
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
    """Sweep request shared by all studies; a kind reads only the fields of
    its request (`request(kind)`), though every field is checked.

    An empty `orders` or `deltas` and a left-out `delta` are resolved here,
    the one place a kind's defaults are chosen, to the kind's entry in
    `_STUDIES`, then checked like given ones.  Orders must be distinct.  A
    rate fit reads the `fit_window` finest radii, three unless given.
    """

    kind: str
    deltas: tuple = ()
    orders: tuple = ()
    delta: float | None = None
    fit_window: int = 3
    base: SolverConfig | None = None
    grid_n: int = 16
    k_max: float = 10.0
    k_points: int = 201

    def __post_init__(self):
        if self.kind not in STUDY_KINDS:
            raise ValueError(f"unknown study kind {self.kind!r}, expected one of {STUDY_KINDS}")
        _, fields_read, default_orders, default_deltas, default_delta = _STUDIES[self.kind]
        fits_rates = "fit_window" in fields_read  # the three rate kinds, the only readers of fit_window
        ds = tuple(float(d) for d in self.deltas) or default_deltas
        if not all(np.isfinite(d) and d >= 0 for d in ds):
            raise spectral.ParameterError("deltas", f"deltas must be finite and >= 0, got {ds}")
        if 0.0 in ds and self.kind != "delta_rate":  # delta = 0 is the NSE reference, a point of delta_rate only
            raise spectral.ParameterError("deltas", f"deltas must be positive for {self.kind}, got {ds}")
        if ds and any(b >= a for a, b in zip(ds, ds[1:])):
            raise spectral.ParameterError("deltas", "deltas must be strictly decreasing")
        if fits_rates and len(ds) < 3:
            raise spectral.ParameterError("deltas", "a rate fit needs at least three sweep points")
        if self.fit_window < 3:
            raise spectral.ParameterError("fit_window", f"fit_window must be >= 3, got {self.fit_window}")
        if fits_rates and self.fit_window > len(ds):
            raise spectral.ParameterError(
                "fit_window", f"fit_window must be at most the sweep's {len(ds)} points, got {self.fit_window}")
        if self.delta is None:
            self.delta = default_delta
        elif not (np.isfinite(self.delta) and self.delta > 0):
            raise spectral.ParameterError("delta", f"delta must be positive and finite, got {self.delta}")
        orders = tuple(int(n) for n in self.orders) or default_orders
        if any(n < 0 or n > MAX_ORDER for n in orders):  # FilterSpec's cap, before any run
            raise spectral.ParameterError("orders", f"orders must be in [0, {MAX_ORDER}], got {orders}")
        if len(set(orders)) < len(orders):
            raise spectral.ParameterError("orders", f"orders must be distinct, got {orders}")
        self.orders = orders
        if self.kind == "cutoff_table" and not np.isfinite(  # the largest cutoff: finest radius, top order
                filtering.cutoff_root(FilterSpec(delta=min(ds), order=max(orders)))):
            raise spectral.ParameterError(
                "deltas", f"the cutoff at radius {min(ds)!r} and order {max(orders)} is not a finite float")
        spectral.check_grid_size("grid_n", self.grid_n)  # Grid's rule, before any grid is built
        if not (np.isfinite(self.k_max) and self.k_max > 0):
            raise spectral.ParameterError("k_max", f"k_max must be positive and finite, got {self.k_max}")
        if not 1 <= self.k_points <= 10**6:  # before np.linspace allocates them
            raise spectral.ParameterError("k_points", f"k_points must be in [1, 1000000], got {self.k_points}")
        self.deltas = ds


@dataclass
class StudyReport:
    tables: dict
    fits: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    kind: str = ""  # kind and params are the spec's, set by run_study
    params: dict = field(default_factory=dict)


def fit_rate(
    deltas,
    errors,
    expected: float,
    window: int = 3,
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

    w = min(window, usable)
    w = max(w, 3)
    sel_d = ds[usable - w : usable]
    sel_e = es[usable - w : usable]
    slope, intercept = np.polyfit(np.log(sel_d), np.log(sel_e), 1)
    return RateFit(
        float(slope), float(intercept), expected, tuple(sel_d), floor_limited=floor_limited
    )


def _columns(rows) -> dict:
    """Rows of {name: value} as the table {name: [value per row]}, in the rows' key order."""
    return {name: [row[name] for row in rows] for name in rows[0]}


def _rate_study(spec, measure, floor, metadata) -> StudyReport:
    """Sweep delta per order; fit the first measured quantity against delta^(2N+2).

    measure(delta, order) returns {name: value}; each name becomes the
    column `<name>_order_<N>`, in the order measure returns them.  Fits
    that are degenerate or floor-limited are flagged by their order key.
    """
    table: dict = {"delta": list(spec.deltas)}
    fits = {}
    for order in spec.orders:
        columns = _columns([measure(d, order) for d in spec.deltas])
        table.update((f"{name}_order_{order}", col) for name, col in columns.items())
        fits[f"order_{order}"] = fit_rate(
            spec.deltas, next(iter(columns.values())), expected=2.0 * (order + 1),
            window=spec.fit_window, floor=floor,
        )
    flags = [k for k, f in fits.items() if f.degenerate or f.floor_limited]
    return StudyReport(tables={"main": table}, fits=fits, flags=flags, metadata=metadata)


def deconv_rate_study(spec: StudySpec) -> StudyReport:
    """Deconvolution error of the single-mode field k = (1, 0, 0) across delta, per order.

    The error is measured end to end: filter, then iterative van Cittert
    deconvolution, then the L2 norm of the difference from the original.
    """
    mode = (1, 0, 0)
    phi = fields.single_mode(spectral.Grid(16), mode)  # any grid holding the mode measures alike

    def measure(d, order):
        fspec = FilterSpec(delta=d, order=order)
        recovered = filtering.van_cittert(filtering.apply_filter(phi, fspec), fspec)
        return {"error": spectral.hs_norm(phi.with_coeffs(phi.coeffs - recovered.coeffs), 0)}

    return _rate_study(spec, measure, 0.0, {"field": "single_mode", "mode": mode})


def _scenario(base: SolverConfig, delta: float, order: int) -> SolverConfig:
    """The study's order-N model run of base at radius delta."""
    return replace(base, model=ModelKind.leray_deconvolution(order), filter=FilterSpec(delta=delta, order=order))


def _reference(spec: StudySpec):
    """The NSE reference trajectory of the study's base scenario, and its metadata."""
    base = spec.base
    if base is None:
        raise ValueError(f"{spec.kind} requires a base SolverConfig")
    metadata = {"n": base.grid.n, "nu": base.nu, "dt": base.dt, "t_end": base.t_end}
    return solver.run(replace(base, model=ModelKind.nse(), filter=None)), metadata


def _trajectory_point(base: SolverConfig, reference, delta: float, order: int) -> dict:
    """One point of a trajectory study: its error to the reference and its cost.

    At delta = 0 the point is the reference itself, not a rerun.  A model
    trajectory is dropped on return, so a sweep holds one beside the reference.
    """
    traj = reference if delta == 0 else solver.run(_scenario(base, delta, order))
    err, stats = diagnostics.model_error(traj, reference), traj.stats
    return {"l2l2": err.l2l2, "l2_final": err.l2_final, "h1_avg": err.h1_timeavg,
            "wall_seconds": stats.wall_seconds, "deconv_seconds": stats.deconv_seconds,
            "filter_applications": stats.filter_applications, "rhs_evals": stats.rhs_evals}


# the error change between radii below which a trajectory rate fit stops, at the integrator's floor
_TRAJECTORY_FLOOR = 1e-12


def delta_rate_study(spec: StudySpec) -> StudyReport:
    """Model-vs-reference trajectory error across filter radii at fixed order.

    Requires a base SolverConfig describing a smooth, well-resolved scenario.
    A delta = 0 point is the reference itself, with its cost and a zero
    error row, which the fit then reports as degenerate rather than crashing.
    """
    reference, metadata = _reference(spec)
    return _rate_study(spec, lambda d, order: _trajectory_point(spec.base, reference, d, order),
                       _TRAJECTORY_FLOOR, metadata)


def deconv_unit_cost(g_hat: np.ndarray, fbar: np.ndarray) -> float:
    """Wall-clock cost of one van Cittert iteration as the stepper runs it.

    The kernel is timed on the filter multiplier g_hat and filtered field
    fbar on the stepper's layout (spectral.integration_band), with
    preallocated buffers, so the unit matches what RunStats.deconv_seconds
    accumulates.  Measured as a difference of order-8 and order-0
    applications so setup cost cancels; the minimum over 7 repeats rejects
    scheduler noise.
    """
    order_hi, repeats = 8, 7
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
    The unit is read before each model run and after the last; their median
    is `unit_filter_seconds`, and `unit_filter_readings` keeps them all.
    """
    reference, metadata = _reference(spec)
    band = spectral.integration_band(spec.base.grid)  # deconv_unit_cost's operand, built once
    g_hat = filtering.transfer_g(band.k_mag, FilterSpec(delta=spec.delta))
    fbar = g_hat * band.restrict(fields.random_solenoidal(spec.base.grid, seed=973).coeffs)
    units, rows = [], []
    for order in spec.orders:
        units.append(deconv_unit_cost(g_hat, fbar))
        rows.append({"order": order, **_trajectory_point(spec.base, reference, spec.delta, order)})
    units.append(deconv_unit_cost(g_hat, fbar))
    table = _columns(rows)
    errs = table["l2l2"]
    flags = []
    if not all(b < a for a, b in zip(errs, errs[1:])):
        flags.append("errors_not_strictly_decreasing")

    return StudyReport(
        tables={"main": table}, flags=flags,
        # statistics.median, not np.median, whose first call imports numpy.ma (0.5 MiB)
        metadata={**metadata, "unit_filter_seconds": statistics.median(units), "unit_filter_readings": units},
    )


def cutoff_table_study(spec: StudySpec) -> StudyReport:
    """Cutoff wavenumber of the smoother across orders and filter radii."""
    # %g where it reads back as the radius, else repr, so no two radii share a column
    names = [f"k_c_delta_{d:g}" if float(f"{d:g}") == d else f"k_c_delta_{d!r}" for d in spec.deltas]
    rows = [{"order": o, **{name: filtering.cutoff_frequency(FilterSpec(delta=d, order=o))
                            for name, d in zip(names, spec.deltas)}} for o in spec.orders]
    table = _columns(rows)

    def falls(values):
        return any(b < a for a, b in zip(values, values[1:]))

    flags = [name.replace("k_c_", "not_monotone_in_order_") for name in names if falls(table[name])]
    flags += [f"not_monotone_in_inverse_delta_order_{row['order']}" for row in rows
              if falls([row[name] for name in names])]

    return StudyReport(tables={"main": table}, flags=flags)


def consistency_rate_study(spec: StudySpec) -> StudyReport:
    """Consistency-tensor magnitude against delta on a frozen analytic field."""
    grid = spectral.Grid(spec.grid_n)
    v = fields.taylor_green(grid)
    violated = []

    def measure(d, order):
        rep = diagnostics.consistency_report(v, FilterSpec(delta=d, order=order))
        if rep.l1_tau > rep.bound_sharp * (1.0 + 1e-12):
            violated.append((d, order))
        return {"l1_tau": rep.l1_tau, "bound_sharp": rep.bound_sharp,
                "bound_crude": rep.bound_crude, "ratio": rep.ratio}

    report = _rate_study(spec, measure, 0.0, {"field": "taylor_green"})
    if violated:
        report.flags.insert(0, "bound_violated")
    return report


def transfer_study(spec: StudySpec) -> StudyReport:
    """Filter, deconvolution and smoother multipliers at one radius, per order.

    One table over k in [0, k_max]: the filter g_hat and the exact inverse
    filter d_exact = 1 + (delta k)^2, then d_hat_order_<N> and
    h_hat_order_<N> for each requested order, which rise to d_exact and to
    1 as N grows.
    """
    ks = np.linspace(0.0, spec.k_max, spec.k_points)
    exact = FilterSpec(delta=spec.delta)
    table = {"k": ks.tolist(), "g_hat": filtering.transfer_g(ks, exact).tolist(),
             "d_exact": filtering.transfer_exact(ks, exact).tolist()}
    for order in spec.orders:
        fs = FilterSpec(delta=spec.delta, order=order)
        table[f"d_hat_order_{order}"] = filtering.transfer_dn(ks, fs).tolist()
        table[f"h_hat_order_{order}"] = filtering.transfer_hn(ks, fs).tolist()
    return StudyReport(tables={"main": table})


# kind: (study, request, default orders, default deltas, default delta).  The
# request is the StudySpec fields the study reads: `run_study` writes it, less
# `base`, as the report's params, and the kind's command takes it as its flags.
_STUDIES = {
    "deconv_rate": (deconv_rate_study, ("deltas", "orders", "fit_window"),
                    (0, 1, 2), (0.2, 0.1, 0.05, 0.025), None),
    "delta_rate": (delta_rate_study, ("base", "deltas", "orders", "fit_window"), (0,), (0.4, 0.2, 0.1), None),
    "n_limit": (n_limit_study, ("base", "delta", "orders"), (0, 1, 2, 4, 8), (), 0.5),
    "cutoff_table": (cutoff_table_study, ("deltas", "orders"), tuple(range(0, 51, 5)), (1.0, 0.5, 0.25), None),
    "consistency_rate": (consistency_rate_study, ("deltas", "orders", "grid_n", "fit_window"),
                         (0, 1), (0.2, 0.1, 0.05, 0.025), None),
    "transfer": (transfer_study, ("delta", "orders", "k_max", "k_points"), (0, 1, 2), (), 1.0),
}
STUDY_KINDS = tuple(_STUDIES)


def request(kind: str) -> tuple:
    """The StudySpec fields a study kind reads, `base` among them for the trajectory studies."""
    return _STUDIES[kind][1]


def run_study(spec: StudySpec) -> StudyReport:
    """Run the spec's study; its report's params are the spec's resolved request, less `base`."""
    study, fields_read = _STUDIES[spec.kind][:2]
    params = {name: getattr(spec, name) for name in fields_read if name != "base"}
    return replace(study(spec), kind=spec.kind, params=params)
