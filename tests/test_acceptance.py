"""Acceptance gate: one test per release criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see every verdict line.
Each test prints `[criterion-NN] <claim>: PASS|FAIL` before asserting, so a
red run still reports the measured numbers it failed on.  The n = 32 solver
criteria take a few minutes combined.
"""

import os
from pathlib import Path

import numpy as np
import pytest

import leraydec as ld
from leraydec import cli, diagnostics, experiments, filtering, tables
from leraydec.experiments import StudySpec


def _verdict(num: int, claim: str, ok: bool, detail: str = "") -> None:
    tail = f"  ({detail})" if detail else ""
    print(f"[criterion-{num:02d}] {claim}: {'PASS' if ok else 'FAIL'}{tail}")


# -------------------------------------------------------------------------


def test_criterion_01_iterative_deconvolution_matches_closed_form(grid32):
    u = ld.random_solenoidal(grid32, seed=5)
    worst = 0.0
    for order in range(11):
        spec = ld.FilterSpec(delta=0.5, order=order)
        ubar = ld.apply_filter(u, spec)
        iterative = ld.van_cittert(ubar, spec)
        direct = ld.apply_dn(ubar, spec)
        diff = iterative.with_coeffs(iterative.coeffs - direct.coeffs)
        rel = ld.hs_norm(diff, 0) / ld.hs_norm(direct, 0)
        worst = max(worst, rel)
    ok = worst <= 1e-12
    _verdict(1, "van Cittert equals the closed-form multiplier, orders 0..10",
             ok, f"worst rel {worst:.3e}")
    assert ok


def test_criterion_02_frozen_transfer_values():
    one = np.array([1.0])
    zero = np.array([0.0])
    d1 = float(ld.transfer_dn(one, ld.FilterSpec(delta=1.0, order=1))[0])
    d2 = float(ld.transfer_dn(one, ld.FilterSpec(delta=1.0, order=2))[0])
    errs = [abs(d1 - 1.5), abs(d2 - 1.75)]
    for order in range(51):
        h0 = float(ld.transfer_hn(zero, ld.FilterSpec(delta=1.0, order=order))[0])
        errs.append(abs(h0 - 1.0))
    worst = max(errs)
    ok = worst <= 1e-14
    _verdict(2, "frozen transfer values (1.5, 1.75, smoother 1 at k = 0)",
             ok, f"worst abs {worst:.3e}")
    assert ok


def test_criterion_03_deconvolution_error_rates():
    rep = experiments.run_study(StudySpec(kind="deconv_rate"))
    devs = {}
    for order in (0, 1, 2):
        fit = rep.fits[f"order_{order}"]
        devs[order] = fit.deviation
        assert fit.expected == 2.0 * (order + 1)
    ok = all(d <= 0.05 for d in devs.values())
    _verdict(3, "single-mode deconvolution error rates hit 2, 4, 6",
             ok, "devs " + ", ".join(f"{d:.4f}" for d in devs.values()))
    assert ok


def test_criterion_04_operator_norm_approaches_order_plus_one():
    gaps = {}
    exceeded = False
    for order in (1, 3, 7):
        spec = ld.FilterSpec(delta=1.0, order=order)
        sup = ld.operator_norm_dn(spec, k_max=1e3)
        gaps[order] = (order + 1) - sup
        if sup > order + 1:
            exceeded = True
    ok = (not exceeded) and all(abs(g) <= 1e-3 for g in gaps.values())
    _verdict(4, "deconvolution norm reaches order + 1 from below",
             ok, "gaps " + ", ".join(f"{g:.2e}" for g in gaps.values()))
    assert ok


def test_criterion_05_cutoff_frequencies():
    vals = [ld.cutoff_frequency(ld.FilterSpec(delta=d, order=0)) for d in (1.0, 0.5, 0.25)]
    values_ok = vals == [1, 2, 4]

    seq = [ld.cutoff_frequency(ld.FilterSpec(delta=1.0, order=o)) for o in range(51)]
    monotone_ok = all(b >= a for a, b in zip(seq, seq[1:]))

    worst = 0.0
    for order in (0, 1, 2, 5, 10, 25, 50):
        for delta in (1.0, 0.5, 0.25, 0.1):
            spec = ld.FilterSpec(delta=delta, order=order)
            gap = abs(filtering.cutoff_root(spec) - ld.cutoff_frequency_exact(spec))
            worst = max(worst, gap)
    bisect_ok = worst <= 1e-9

    ok = values_ok and monotone_ok and bisect_ok
    _verdict(5, "cutoff table {1, 2, 4}, monotone in order, bisection agrees",
             ok, f"seq end {seq[-1]}, bisection gap {worst:.2e}")
    assert ok


@pytest.mark.slow
def test_criterion_06_inviscid_energy_conservation(grid32):
    def drift(dt: float) -> float:
        cfg = ld.SolverConfig(
            grid=grid32,
            model=ld.ModelKind.leray_deconvolution(2),
            nu=0.0,
            dt=dt,
            t_end=1.0,
            filter=ld.FilterSpec(delta=0.5, order=2),
            ic=ld.FieldSpec(kind="taylor_green"),
            snapshot_every=1000,
        )
        traj = ld.run(cfg)
        e0 = traj.records[0].energy
        return abs(traj.records[-1].energy - e0) / e0

    d_coarse = drift(0.01)
    d_fine = drift(0.005)
    ratio = d_coarse / d_fine
    ok = d_coarse <= 1e-6 and 4.0 <= ratio <= 20.0
    _verdict(6, "inviscid energy drift tiny and third order in dt",
             ok, f"drift {d_coarse:.3e}, halving ratio {ratio:.2f}")
    assert ok


@pytest.mark.slow
def test_criterion_07_energy_balance_and_a_priori_bound(grid32):
    nu, t_end = 0.1, 0.5
    ic = ld.FieldSpec(kind="taylor_green")
    forcing = ld.FieldSpec(kind="single_mode", mode=(1, 0, 0), amplitude=0.5)

    v0 = ic.evaluate(grid32)
    f = forcing.evaluate(grid32)
    bound = ld.hs_norm(v0, 0) ** 2 + (1.0 / nu) * t_end * ld.hs_norm(f, -1) ** 2
    bound_ok = bound == pytest.approx(0.875, rel=1e-12)

    residual_ok, estimate_ok = True, True
    worst_res = 0.0
    for order in (0, 2, 8):
        cfg = ld.SolverConfig(
            grid=grid32,
            model=ld.ModelKind.leray_deconvolution(order),
            nu=nu,
            dt=0.0025,
            t_end=t_end,
            filter=ld.FilterSpec(delta=0.5, order=order),
            ic=ic,
            forcing=forcing,
            snapshot_every=1000,
        )
        traj = ld.run(cfg)
        e0 = traj.records[0].energy
        res = max(abs(r.balance_residual) for r in traj.records)
        worst_res = max(worst_res, res / e0)
        if res > 1e-6 * e0:
            residual_ok = False
        sup_sq = max(2.0 * r.energy for r in traj.records)
        if sup_sq > bound * (1.0 + 1e-12):
            estimate_ok = False

    ok = bound_ok and residual_ok and estimate_ok
    _verdict(7, "discrete energy balance closes and the growth bound holds",
             ok, f"worst rel residual {worst_res:.3e}, bound {bound:.6g}")
    assert ok


def test_criterion_08_filter_error_identity_and_bounds(grid32):
    u = ld.random_solenoidal(grid32, seed=7)
    worst_eq = 0.0
    bounds_ok = True
    for delta in (0.5, 0.1):
        rows = diagnostics.filter_error_bounds_check(
            u, ld.FilterSpec(delta=delta), max_beta_order=2
        )
        assert len(rows) == 10
        for row in rows:
            worst_eq = max(worst_eq, abs(row.lhs - row.eq_rhs) / row.eq_rhs)
            if row.lhs > row.bound_laplacian * (1 + 1e-12):
                bounds_ok = False
            if row.lhs > row.bound_gradient * (1 + 1e-12):
                bounds_ok = False
    ok = worst_eq <= 1e-12 and bounds_ok
    _verdict(8, "filter-error identity exact, both derivative bounds hold",
             ok, f"worst rel {worst_eq:.3e}")
    assert ok


def test_criterion_09_consistency_tensor_rates_and_bound():
    rep = experiments.run_study(StudySpec(kind="consistency_rate"))
    devs = {o: rep.fits[f"order_{o}"].deviation for o in (0, 1)}
    rates_ok = all(d <= 0.3 for d in devs.values())
    bound_ok = "bound_violated" not in rep.flags
    table = rep.tables["main"]
    for order in (0, 1):
        for l1, sharp, crude in zip(
            table[f"l1_tau_order_{order}"],
            table[f"bound_sharp_order_{order}"],
            table[f"bound_crude_order_{order}"],
        ):
            if not (l1 <= sharp * (1 + 1e-12) and sharp <= crude * (1 + 1e-12)):
                bound_ok = False
    ok = rates_ok and bound_ok
    _verdict(9, "consistency tensor scales at 2(order + 1) under its bounds",
             ok, f"devs {devs[0]:.3f}, {devs[1]:.3f}")
    assert ok


def _trajectory_base(grid32):
    return ld.SolverConfig(
        grid=grid32,
        model=ld.ModelKind.nse(),
        nu=0.1,
        dt=0.01,
        t_end=1.0,
        ic=ld.FieldSpec(kind="taylor_green"),
        snapshot_every=10,
    )


@pytest.mark.slow
def test_criterion_10_trajectory_error_second_order_in_delta(grid32):
    rep = experiments.run_study(StudySpec(
        kind="delta_rate",
        deltas=(0.4, 0.2, 0.1),
        orders=(0,),
        base=_trajectory_base(grid32),
    ))
    errs = rep.tables["main"]["l2l2_order_0"]
    # The model error tracks C delta^2 / (1 + 3 delta^2) on this flow: exactly
    # second order, with a prefactor that saturates at the coarse radius.  A
    # least-squares secant gives delta = 0.4, where 3 delta^2 is not small,
    # full weight and reads about 1.73.  So the rate is taken from the finest
    # pair, the asymptotic estimate the window offers, and the coarse pair
    # must show the local slope approaching 2 as delta shrinks.  The pinned
    # radii halve, so each pairwise slope is a base-2 log of the error ratio.
    coarse, fine = (np.log2(errs[i] / errs[i + 1]) for i in (0, 1))
    rate_ok = 1.8 <= fine <= 2.2
    approach_ok = abs(fine - 2.0) < abs(coarse - 2.0)
    ok = rate_ok and approach_ok
    secant = rep.fits["order_0"].slope
    _verdict(10, "order-0 trajectory error scales as delta squared",
             ok, f"l2l2 errors {errs[0]:.6f}, {errs[1]:.6f}, {errs[2]:.6f} over "
             f"deltas (0.4, 0.2, 0.1); pairwise slopes {coarse:.4f}, {fine:.4f}; "
             f"3-point secant {secant:.4f}")
    assert rate_ok, f"finest-pair slope {fine:.4f} not within [1.8, 2.2]"
    assert approach_ok, (
        f"local slope does not approach 2: {coarse:.4f} -> {fine:.4f}"
    )


@pytest.mark.slow
def test_criterion_11_order_sweep_accuracy_and_cost(grid32):
    rep = experiments.run_study(StudySpec(
        kind="n_limit",
        delta=0.5,
        orders=(0, 1, 2, 4, 8),
        base=_trajectory_base(grid32),
    ))
    table = rep.tables["main"]
    errs = table["l2l2"]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    big_gain = errs[-1] <= 0.5 * errs[0]

    counts_ok = all(
        apps == (order + 1) * rhs
        for order, apps, rhs in zip(
            table["order"], table["filter_applications"], table["rhs_evals"]
        )
    )

    # cost model: deconvolution seconds grow linearly with the application
    # count at roughly the microbenchmarked per-application unit cost
    slope = np.polyfit(table["filter_applications"], table["deconv_seconds"], 1)[0]
    unit = rep.metadata["unit_filter_seconds"]
    cost_ratio = slope / unit
    cost_ok = 0.5 <= cost_ratio <= 2.0

    ok = decreasing and big_gain and counts_ok and cost_ok
    _verdict(11, "error falls with order at one filter application per unit",
             ok, f"err 0 -> 8: {errs[0]:.3e} -> {errs[-1]:.3e}, cost ratio {cost_ratio:.2f}")
    assert decreasing, f"errors not strictly decreasing: {errs}"
    assert big_gain, f"order-8 error {errs[-1]:.3e} vs half of order-0 {0.5 * errs[0]:.3e}"
    assert counts_ok
    assert cost_ok, f"cost ratio {cost_ratio:.2f} outside [0.5, 2]"


_CRIT12_CFG = """
[grid]
n = 8

[fluid]
nu = 0.2

[time]
dt = 0.05
t_end = 0.2

[model]
kind = leray_deconv
delta = 0.5
order = 1
"""


def test_criterion_12_reproducible_runs_and_exact_snapshots(tmp_path, grid16):
    field = ld.random_solenoidal(grid16, seed=3)
    snap_path = tmp_path / "field.snap"
    ld.write_snapshot(snap_path, field, model_family="leray_deconv", delta=0.5, order=1)
    back, meta = ld.read_snapshot(snap_path, expected_grid=grid16)
    snap_ok = np.array_equal(back.coeffs, field.coeffs) and meta.order == 1

    cfg = tmp_path / "run.cfg"
    cfg.write_text(_CRIT12_CFG)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli.main(["run", "--config", str(cfg), "--out", out1]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", out2]) == 0
    repeat_ok = True
    for name in ("diag.csv", "snap_000000.snap", "snap_000001.snap"):
        a = Path(out1, name).read_bytes()
        b = Path(out2, name).read_bytes()
        if a != b:
            repeat_ok = False

    echoed_out = str(tmp_path / "echo")
    assert cli.main(["run", "--config", os.path.join(out1, "effective.cfg"),
                     "--out", echoed_out]) == 0
    echo_ok = (
        Path(out1, "diag.csv").read_bytes()
        == Path(echoed_out, "diag.csv").read_bytes()
    )

    ok = snap_ok and repeat_ok and echo_ok
    _verdict(12, "snapshots round-trip bit-exact and reruns are byte-identical", ok)
    assert ok
