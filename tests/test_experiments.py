"""Sweep drivers: rate fits, study tables, flags, and dispatch."""

import ast
import statistics
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import leraydec as ld
from leraydec import experiments


def _small_base(grid8):
    return ld.SolverConfig(
        grid=grid8,
        model=ld.ModelKind.nse(),
        nu=0.2,
        dt=0.05,
        t_end=0.2,
        ic=ld.FieldSpec(kind="taylor_green"),
        snapshot_every=1,
    )


# ---------------------------------------------------------------- fit_rate


def test_fit_rate_exact_power():
    ds = (0.4, 0.2, 0.1, 0.05)
    es = [d**3 for d in ds]
    fit = experiments.fit_rate(ds, es, expected=3.0)
    assert fit.slope == pytest.approx(3.0, abs=1e-10)
    assert fit.deviation < 1e-10
    assert fit.window == (0.2, 0.1, 0.05)  # default: three finest
    assert not fit.degenerate and not fit.floor_limited


def test_fit_rate_window_clamps():
    ds = (1.0, 0.5, 0.25, 0.125, 0.0625)
    es = [d**2 for d in ds]
    wide = experiments.fit_rate(ds, es, expected=2.0, window=10)
    assert wide.window == ds
    narrow = experiments.fit_rate(ds, es, expected=2.0, window=1)
    assert len(narrow.window) == 3  # never fewer than three points


def test_fit_rate_floor_truncation():
    ds = (1.0, 0.5, 0.25, 0.125, 0.0625)
    es = [d**2 for d in ds]
    es[4] = es[3]  # finest pair sits on the floor
    fit = experiments.fit_rate(ds, es, expected=2.0, floor=1e-12)
    assert fit.floor_limited
    assert not fit.degenerate
    assert fit.window == (0.5, 0.25, 0.125)
    assert fit.slope == pytest.approx(2.0, abs=1e-10)


def test_fit_rate_floor_degenerate_when_too_few_points():
    ds = (1.0, 0.5, 0.25, 0.125)
    es = [1.0, 1.0, 0.5, 0.25]  # flat from the first pair on
    fit = experiments.fit_rate(ds, es, expected=2.0, floor=1e-6)
    assert fit.degenerate and fit.floor_limited
    assert np.isnan(fit.slope)


def test_fit_rate_degenerate_on_zero_error():
    fit = experiments.fit_rate((0.4, 0.2, 0.1), [1e-3, 1e-4, 0.0], expected=2.0)
    assert fit.degenerate
    assert np.isnan(fit.slope)


def test_fit_rate_validation():
    with pytest.raises(ValueError, match="three"):
        experiments.fit_rate((0.2, 0.1), [1.0, 0.5], expected=2.0)
    with pytest.raises(ValueError, match="decreasing"):
        experiments.fit_rate((0.1, 0.2, 0.4), [1.0, 0.5, 0.25], expected=2.0)
    with pytest.raises(ValueError):
        experiments.fit_rate((0.4, 0.2, 0.1), [1.0, 0.5], expected=2.0)


# ---------------------------------------------------------------- StudySpec


def test_study_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown study kind"):
        experiments.StudySpec(kind="bogus")


def test_study_spec_rejects_nondecreasing_deltas():
    with pytest.raises(ValueError, match="strictly decreasing"):
        experiments.StudySpec(kind="deconv_rate", deltas=(0.1, 0.2))


@pytest.mark.parametrize("name, value", [
    ("delta", -1.0), ("delta", 0.0), ("delta", float("nan")), ("delta", float("inf")),
    ("fit_window", 2), ("k_max", float("inf")), ("deltas", (0.2, 0.1)),
    ("orders", (0, -1)), ("deltas", (0.4, float("nan"), 0.1)), ("deltas", (0.2, 0.1, -0.1)),
    ("k_max", -1.0), ("k_max", 0.0), ("k_max", float("nan")), ("k_points", 0),
    ("orders", (0, 65)), ("grid_n", 7), ("grid_n", 2),
    ("k_points", 10**13),
    ("fit_window", 5),  # wider than deconv_rate's four default radii
    ("orders", (1, 0, 1)),
])
def test_study_spec_rejects_each_bad_value_by_its_field(name, value):
    with pytest.raises(ld.ParameterError) as err:
        experiments.StudySpec(kind="deconv_rate", **{name: value})
    assert err.value.parameter == name


@pytest.mark.parametrize("kind, orders, deltas", [
    ("deconv_rate", (0, 1, 2), (0.2, 0.1, 0.05, 0.025)),
    ("delta_rate", (0,), (0.4, 0.2, 0.1)),
    ("n_limit", (0, 1, 2, 4, 8), ()),
    ("cutoff_table", (0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50), (1.0, 0.5, 0.25)),
    ("consistency_rate", (0, 1), (0.2, 0.1, 0.05, 0.025)),
    ("transfer", (0, 1, 2), ()),
])
def test_study_spec_resolves_each_kinds_default_sweep(kind, orders, deltas):
    """An empty orders or deltas is the kind's default sweep, and a left-out
    delta the kind's radius (none for a kind that reads none), once the spec
    is built, so every study reads the resolved values and a fit window is
    checked against them."""
    spec = experiments.StudySpec(kind=kind)
    delta = {"n_limit": 0.5, "transfer": 1.0}.get(kind)
    assert (spec.orders, spec.deltas, spec.delta, spec.fit_window) == (orders, deltas, delta, 3)
    assert experiments.StudySpec(kind=kind, orders=[], deltas=[], delta=None) == spec
    if kind.endswith("_rate"):
        assert experiments.StudySpec(kind=kind, fit_window=len(deltas)).fit_window == len(deltas)
        with pytest.raises(ld.ParameterError, match="at most the sweep's") as err:
            experiments.StudySpec(kind=kind, fit_window=len(deltas) + 1)
        assert err.value.parameter == "fit_window"


def test_cutoff_table_takes_a_radius_while_its_cutoff_is_a_float():
    # radius 1e-308 cuts off at 1e308 at order 0, and past the largest float by order 50
    rep = experiments.run_study(experiments.StudySpec(kind="cutoff_table", deltas=(1e-308,), orders=(0,)))
    (k_c,) = rep.tables["main"]["k_c_delta_1e-308"]
    assert k_c == ld.cutoff_frequency(ld.FilterSpec(delta=1e-308)) and 0.99e308 < k_c < 1e308
    for deltas, orders in (((5e-324,), (0,)), ((1.0, 1e-308), (0, 50))):
        with pytest.raises(ld.ParameterError, match="not a finite float") as err:
            experiments.StudySpec(kind="cutoff_table", deltas=deltas, orders=orders)
        assert err.value.parameter == "deltas"


def test_only_delta_rate_takes_a_zero_radius():
    # delta = 0 is delta_rate's NSE pass-through; no other study can run it
    for kind in set(experiments.STUDY_KINDS) - {"delta_rate"}:
        with pytest.raises(ld.ParameterError, match="positive") as err:
            experiments.StudySpec(kind=kind, deltas=(0.2, 0.1, 0.0))
        assert err.value.parameter == "deltas"
    assert experiments.StudySpec(kind="delta_rate", deltas=(0.2, 0.1, 0.0)).deltas == (0.2, 0.1, 0.0)


def _callers(module, function):
    """(module, enclosing function) of every call to `function` in the package."""
    callers = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and function in ast.unparse(node.func):
            callers.add((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(experiments.__file__).parent.glob(f"{module}.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "<module>")
    return callers


def test_only_the_rate_kernel_fits_rates():
    """Every rate study runs through experiments._rate_study, which alone calls fit_rate."""
    assert _callers("*", "fit_rate") == {("experiments", "_rate_study")}


def test_only_the_point_and_the_reference_run_the_solver():
    """A study runs a model point only through experiments._trajectory_point."""
    assert _callers("experiments", "solver.run") == {("experiments", "_reference"),
                                                     ("experiments", "_trajectory_point")}


@pytest.mark.parametrize("kind", ["delta_rate", "deconv_rate", "consistency_rate"])
def test_rate_studies_fail_before_running(grid8, monkeypatch, kind):
    runs = []
    monkeypatch.setattr(ld.solver, "run", lambda config: runs.append(config))
    base = _small_base(grid8)
    with pytest.raises(ValueError, match="at least three sweep points"):
        experiments.run_study(experiments.StudySpec(kind=kind, deltas=(0.4, 0.2), base=base))
    with pytest.raises(ValueError, match="fit_window must be >= 3, got 2"):
        experiments.run_study(experiments.StudySpec(kind=kind, fit_window=2, base=base))
    assert runs == []


def test_cutoff_table_takes_fewer_than_three_deltas():
    rep = experiments.run_study(experiments.StudySpec(kind="cutoff_table", deltas=(1.0, 0.5), orders=(0, 1)))
    assert {"k_c_delta_1", "k_c_delta_0.5"} <= set(rep.tables["main"])


# what experiments._trajectory_point measures, in its order
POINT_COLUMNS = ["l2l2", "l2_final", "h1_avg", "wall_seconds", "deconv_seconds", "filter_applications",
                 "rhs_evals"]


def _columns(measures, orders):
    return ["delta"] + [f"{m}_order_{o}" for o in orders for m in measures]


def test_rate_studies_keep_their_column_and_flag_order(grid8, monkeypatch):
    # the CSV header is list(table); flags list bound_violated, then each
    # flagged fit in sweep order
    rep = experiments.run_study(experiments.StudySpec(kind="deconv_rate", orders=(2, 0)))
    assert list(rep.tables["main"]) == _columns(["error"], (2, 0))
    assert rep.flags == []

    spec = experiments.StudySpec(kind="delta_rate", deltas=(0.4, 0.2, 0.1, 0.0), orders=(1, 0),
                                 base=_small_base(grid8))
    rep = experiments.run_study(spec)
    assert list(rep.tables["main"]) == _columns(POINT_COLUMNS, (1, 0))
    assert rep.flags == ["order_1", "order_0"]

    measures = ["l1_tau", "bound_sharp", "bound_crude", "ratio"]
    rep = experiments.run_study(experiments.StudySpec(kind="consistency_rate", grid_n=8))
    assert list(rep.tables["main"]) == _columns(measures, (0, 1))
    assert rep.flags == []
    inf = float("inf")
    over = SimpleNamespace(l1_tau=inf, bound_sharp=1.0, bound_crude=1.0, ratio=inf)
    monkeypatch.setattr(ld.diagnostics, "consistency_report", lambda v, fs: over)
    rep = experiments.run_study(experiments.StudySpec(kind="consistency_rate", grid_n=8))
    assert list(rep.tables["main"]) == _columns(measures, (0, 1))
    assert rep.flags == ["bound_violated", "order_0", "order_1"]


# ------------------------------------------------------------- deconv_rate


def test_deconv_rate_study_matches_closed_form():
    spec = experiments.StudySpec(kind="deconv_rate", grid_n=16)
    rep = experiments.run_study(spec)
    assert rep.kind == "deconv_rate"
    table = rep.tables["main"]
    assert table["delta"] == [0.2, 0.1, 0.05, 0.025]

    # single-mode |k| = 1 field of unit amplitude has L2 norm 1/sqrt(2), and
    # the end-to-end error is exactly the scalar error multiplier times that
    for order in (0, 1, 2):
        for d, err in zip(table["delta"], table[f"error_order_{order}"]):
            fs = ld.FilterSpec(delta=d, order=order)
            want = ld.deconv_error_multiplier(1.0, fs) / np.sqrt(2.0)
            assert err == pytest.approx(want, rel=1e-12)
        fit = rep.fits[f"order_{order}"]
        assert fit.expected == 2.0 * (order + 1)
        assert fit.deviation <= 0.05
    assert rep.flags == []


# -------------------------------------------------------------- delta_rate


def test_delta_rate_study_requires_base():
    spec = experiments.StudySpec(kind="delta_rate", deltas=(0.4, 0.2, 0.1))
    with pytest.raises(ValueError, match="base"):
        experiments.run_study(spec)


def test_delta_rate_study_small_grid(grid8):
    spec = experiments.StudySpec(
        kind="delta_rate", deltas=(0.4, 0.2, 0.1), orders=(0,), base=_small_base(grid8)
    )
    rep = experiments.run_study(spec)
    table = rep.tables["main"]
    for col in ("l2l2_order_0", "l2_final_order_0", "h1_avg_order_0"):
        vals = table[col]
        assert len(vals) == 3
        assert all(v > 0 for v in vals)
        assert vals[0] > vals[1] > vals[2]  # smaller radius, smaller error
    fit = rep.fits["order_0"]
    assert fit.expected == 2.0
    assert 1.3 < fit.slope < 2.3  # pre-asymptotic window on a coarse sweep
    # The secant is pulled down by delta = 0.4; the finest pair carries the
    # asymptotic rate and the local slope must move toward 2 as delta shrinks.
    errs = table["l2l2_order_0"]
    coarse, fine = (np.log2(errs[i] / errs[i + 1]) for i in (0, 1))
    assert 1.8 <= fine <= 2.2
    assert abs(fine - 2.0) < abs(coarse - 2.0)
    assert rep.metadata["n"] == 8
    assert rep.metadata["nu"] == pytest.approx(0.2)
    # per-point run times are table columns, not metadata
    assert "wall_seconds" not in rep.metadata
    assert len(table["wall_seconds_order_0"]) == 3 and all(w > 0 for w in table["wall_seconds_order_0"])
    assert all(apps == rhs for apps, rhs in zip(table["filter_applications_order_0"], table["rhs_evals_order_0"]))


def test_delta_rate_study_zero_delta_passthrough(grid8):
    spec = experiments.StudySpec(
        kind="delta_rate", deltas=(0.2, 0.1, 0.0), orders=(0,), base=_small_base(grid8)
    )
    rep = experiments.run_study(spec)
    assert rep.tables["main"]["l2l2_order_0"][-1] == 0.0
    assert rep.fits["order_0"].degenerate
    assert "order_0" in rep.flags


def test_a_zero_radius_point_is_the_reference_not_a_rerun(grid8, monkeypatch):
    run, configs, nse = ld.solver.run, [], []

    def recording(config):
        configs.append(config)
        traj = run(config)
        if config.filter is None:
            nse.append(traj)
        return traj

    monkeypatch.setattr(ld.solver, "run", recording)
    spec = experiments.StudySpec(kind="delta_rate", deltas=(0.4, 0.2, 0.1, 0.0), orders=(1, 0),
                                 base=_small_base(grid8))
    table = experiments.run_study(spec).tables["main"]
    # the reference, then three radii per order; no order reruns the NSE at delta = 0
    assert len(configs) == 7 and len(nse) == 1
    for order in (1, 0):
        assert table[f"l2l2_order_{order}"][-1] == 0.0
        assert table[f"wall_seconds_order_{order}"][-1] == nse[0].stats.wall_seconds
        assert table[f"rhs_evals_order_{order}"][-1] == nse[0].stats.rhs_evals


# ----------------------------------------------------------------- n_limit


def test_n_limit_study_counts_and_errors(grid8):
    spec = experiments.StudySpec(
        kind="n_limit", delta=0.5, orders=(0, 1, 2), base=_small_base(grid8)
    )
    rep = experiments.run_study(spec)
    table = rep.tables["main"]
    assert table["order"] == [0, 1, 2]
    errs = table["l2l2"]
    assert errs[0] > errs[1] > errs[2]
    assert "errors_not_strictly_decreasing" not in rep.flags
    for order, apps, rhs in zip(
        table["order"], table["filter_applications"], table["rhs_evals"]
    ):
        assert apps == (order + 1) * rhs
    assert all(w > 0 for w in table["wall_seconds"])
    assert rep.metadata["unit_filter_seconds"] > 0
    # a unit reading before each model run and one after the last; the unit is their median
    readings = rep.metadata["unit_filter_readings"]
    assert len(readings) == len(table["order"]) + 1
    assert rep.metadata["unit_filter_seconds"] == statistics.median(readings)


def test_n_limit_frees_each_trajectory_before_the_next_run(grid8, monkeypatch):
    run, models, alive = ld.solver.run, [], []

    def recording(config):
        if config.filter is not None:  # a model point; the NSE reference lives through the study
            alive.append(sum(ref() is not None for ref in models))
        traj = run(config)
        if config.filter is not None:
            models.append(weakref.ref(traj))
        return traj

    monkeypatch.setattr(ld.solver, "run", recording)
    experiments.run_study(experiments.StudySpec(kind="n_limit", delta=0.5, orders=(0, 1, 2),
                                                base=_small_base(grid8)))
    assert alive == [0, 0, 0]


def test_the_trajectory_studies_carry_the_same_point_columns(grid8):
    base = _small_base(grid8)
    n_limit = experiments.run_study(experiments.StudySpec(kind="n_limit", delta=0.1, orders=(0,), base=base))
    delta_rate = experiments.run_study(experiments.StudySpec(kind="delta_rate", deltas=(0.4, 0.2, 0.1),
                                                             orders=(0,), base=base))
    assert list(n_limit.tables["main"]) == ["order"] + POINT_COLUMNS
    assert list(delta_rate.tables["main"]) == _columns(POINT_COLUMNS, (0,))
    # one point, two tables: the deterministic columns agree to the bit
    for name in ("l2l2", "l2_final", "h1_avg", "filter_applications", "rhs_evals"):
        assert n_limit.tables["main"][name] == delta_rate.tables["main"][f"{name}_order_0"][-1:]


@pytest.mark.parametrize("dealias", [ld.SolverConfig.dealias])  # the pinned dealiasing, in the id
def test_unit_cost_times_van_cittert_on_the_stepper_layout(grid8, monkeypatch, dealias):
    # criterion 11 divides the stepper's deconvolution seconds by the study's
    # microbenchmarked unit, so both must run the kernel on arrays of one shape
    seen = set()
    kernel = ld.filtering.van_cittert_iterate

    def spy(g_hat, fbar, out, scratch, order):
        seen.add((g_hat.shape, fbar.shape, out.shape, scratch.shape))
        return kernel(g_hat, fbar, out, scratch, order)

    monkeypatch.setattr(ld.filtering, "van_cittert_iterate", spy)
    operands = []
    unit_cost = experiments.deconv_unit_cost
    monkeypatch.setattr(experiments, "deconv_unit_cost", lambda *a: operands.append(a) or unit_cost(*a))
    base = _small_base(grid8)
    experiments.run_study(experiments.StudySpec(kind="n_limit", delta=0.5, orders=(0, 2), base=base))
    # read before each model run and after the last, on one operand built once per study
    assert len(operands) == 3 and all(a[0] is operands[0][0] and a[1] is operands[0][1] for a in operands)
    band = ld.spectral.integration_band(grid8)
    # the kz >= 0 half of the band the stepper integrates
    half = (3, band.side, band.side, band.cutoff + 1)
    assert band.shape == half
    assert seen == {(half[1:], half, half, half)}


# ------------------------------------------------------------ cutoff_table


def test_cutoff_table_study_defaults():
    rep = experiments.run_study(experiments.StudySpec(kind="cutoff_table"))
    table = rep.tables["main"]
    assert table["order"][0] == 0 and table["order"][-1] == 50
    assert table["k_c_delta_1"][0] == 1
    assert table["k_c_delta_0.5"][0] == 2
    assert table["k_c_delta_0.25"][0] == 4
    for col in ("k_c_delta_1", "k_c_delta_0.5", "k_c_delta_0.25"):
        kc = table[col]
        assert all(b >= a for a, b in zip(kc, kc[1:]))  # monotone in order
    assert rep.flags == []


@pytest.mark.parametrize("deltas, labels", [
    ((1.0, 0.5, 0.25), ["1", "0.5", "0.25"]),  # the %g spelling where it reads back as the radius
    ((0.1000002, 0.1000001), ["0.1000002", "0.1000001"]),  # repr where %g would merge them
])
def test_cutoff_table_labels_each_radius_apart(monkeypatch, deltas, labels):
    monkeypatch.setattr(ld.filtering, "cutoff_frequency", lambda fs: -fs.order)  # falls in every column
    rep = experiments.run_study(experiments.StudySpec(kind="cutoff_table", deltas=deltas, orders=(0, 1)))
    assert list(rep.tables["main"]) == ["order"] + [f"k_c_delta_{label}" for label in labels]
    assert rep.flags == [f"not_monotone_in_order_delta_{label}" for label in labels]


# ------------------------------------------------------- consistency_rate


def test_consistency_rate_study_defaults():
    rep = experiments.run_study(experiments.StudySpec(kind="consistency_rate"))
    assert "bound_violated" not in rep.flags
    table = rep.tables["main"]
    for order in (0, 1):
        fit = rep.fits[f"order_{order}"]
        assert fit.deviation <= 0.3
        # the test field makes the sharp bound an equality, so ratios sit
        # at 1 up to rounding
        ratios = table[f"ratio_order_{order}"]
        assert all(0.0 < r <= 1.0 + 1e-12 for r in ratios)


# ------------------------------------------------------- transfer


def test_transfer_figures_tables():
    """At delta = 1 the table holds the curves of the paper's transfer figures:
    d_N rises to the exact inverse filter 1 + k^2 and h_N to 1 as N grows."""
    rep = experiments.run_study(experiments.StudySpec(kind="transfer", delta=1.0, orders=(0, 2, 10, 50)))
    assert list(rep.tables) == ["main"]
    table = rep.tables["main"]
    assert list(table)[:3] == ["k", "g_hat", "d_exact"]
    assert len(table["k"]) == 201
    assert table["k"][-1] == pytest.approx(10.0)
    assert table["d_hat_order_2"][0] == pytest.approx(1.0)
    assert table["d_exact"][-1] == pytest.approx(1.0 + 10.0**2)
    for order in (0, 2, 10, 50):
        h = table[f"h_hat_order_{order}"]
        assert h[0] == pytest.approx(1.0)
        assert all(b <= a + 1e-15 for a, b in zip(h, h[1:]))  # decays with k
    for lower, higher in ((0, 2), (2, 10), (10, 50)):
        assert all(lo <= hi <= ex for lo, hi, ex in zip(
            table[f"d_hat_order_{lower}"], table[f"d_hat_order_{higher}"], table["d_exact"]))
        assert all(lo <= hi <= 1.0 for lo, hi in zip(
            table[f"h_hat_order_{lower}"], table[f"h_hat_order_{higher}"]))
