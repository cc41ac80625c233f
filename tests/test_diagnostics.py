import ast
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import leraydec as ld
from leraydec import diagnostics

from conftest import SYMMETRY_TOLERANCE, reflect, rel_l2, shift, swap_xy


def _viscous_tg_run(grid, dt, t_end=0.2, nu=0.1, order=0):
    cfg = ld.SolverConfig(
        grid=grid, model=ld.ModelKind.leray_deconvolution(order),
        nu=nu, dt=dt, t_end=t_end,
        filter=ld.FilterSpec(delta=0.5, order=order),
        ic=ld.FieldSpec(kind="taylor_green"),
        forcing=ld.FieldSpec(kind="single_mode", mode=(0, 1, 0), amplitude=0.2),
        snapshot_every=10**9,
    )
    return ld.run(cfg)


def test_energy_record_values(grid16):
    f = ld.single_mode(grid16, (2, 0, 0), amplitude=1.0)
    forcing = ld.single_mode(grid16, (2, 0, 0), amplitude=0.5)
    rec = diagnostics.energy_record(f, nu=0.3, forcing=forcing)
    # ||f||^2 = 1/2, H1 seminorm^2 = 4 * 1/2
    assert rec.energy == pytest.approx(0.25, rel=1e-13)
    assert rec.h1_seminorm_sq == pytest.approx(2.0, rel=1e-13)
    assert rec.dissipation == pytest.approx(0.6, rel=1e-13)
    assert rec.input_power == pytest.approx(0.25, rel=1e-13)


def test_band_and_full_grid_records_agree(grid16):
    # a run forms its records on the band; the full-grid record of the same
    # state sums the same terms (plus zeros) in another order
    traj = _viscous_tg_run(grid16, dt=0.01, t_end=0.03, order=2)
    band = ld.spectral.integration_band(grid16)
    state = traj.terminal
    forcing = ld.SpectralField(grid16, band.pad(band.restrict(ld.random_solenoidal(grid16, seed=14).coeffs)))
    full = diagnostics.energy_record(state, 0.1, forcing)
    on_band = diagnostics.energy_record(ld.SpectralField(grid16, band.restrict(state.coeffs), state.t, band),
                                        0.1, ld.SpectralField(grid16, band.restrict(forcing.coeffs), band=band))
    assert full.input_power != 0.0
    for name in ("energy", "h1_seminorm_sq", "dissipation", "input_power"):
        assert getattr(on_band, name) == pytest.approx(getattr(full, name), rel=1e-14, abs=0)
    assert on_band.t == full.t


def test_balance_residual_zero_for_exact_decay(grid16):
    # single transverse mode: energy decays as exp(-2 nu t) exactly, and the
    # trapezoid applied to the recorded exponential leaves the O(dt^2) defect
    cfg = ld.SolverConfig(
        grid=grid16, model=ld.ModelKind.nse(), nu=0.5, dt=0.01, t_end=0.1,
        ic=ld.FieldSpec(kind="single_mode", mode=(1, 0, 0)),
    )
    traj = ld.run(cfg)
    res = max(abs(r.balance_residual) for r in traj.records)
    e0 = traj.records[0].energy
    assert res / e0 < 1e-4
    assert res > 0.0  # trapezoid defect is visible, not hidden


def test_balance_residual_second_order_in_dt(grid16):
    # the residual is a trapezoidal quadrature defect: halving dt divides it by 4
    r1 = max(abs(r.balance_residual) for r in _viscous_tg_run(grid16, dt=0.02).records)
    r2 = max(abs(r.balance_residual) for r in _viscous_tg_run(grid16, dt=0.01).records)
    assert r1 / r2 == pytest.approx(4.0, rel=0.15)


def test_attach_balance_residuals_recomputes():
    recs = [
        diagnostics.DiagRecord(t=0.0, energy=1.0, h1_seminorm_sq=0.0,
                               dissipation=2.0, input_power=0.0, balance_residual=99.0),
        diagnostics.DiagRecord(t=0.5, energy=0.0, h1_seminorm_sq=0.0,
                               dissipation=2.0, input_power=0.0, balance_residual=99.0),
    ]
    diagnostics.attach_balance_residuals(recs)
    assert recs[0].balance_residual == 0.0
    # E drop of 1 exactly matches trapezoid dissipation 0.5 * (2 + 2) * 0.5 = 1
    assert recs[1].balance_residual == pytest.approx(0.0, abs=1e-15)


def test_l2_box_norm_parseval(grid16):
    f = ld.random_solenoidal(grid16, seed=20)
    u = ld.to_physical(f)
    integral = (u**2).sum() * (2 * np.pi / 16) ** 3
    assert diagnostics.l2_box_norm(f) == pytest.approx(np.sqrt(integral), rel=1e-13)


def test_consistency_integral_matches_the_explicit_tensor(grid16):
    # reference: the 3x3 tensor a_i v_j - v_i v_j with a = h_N v, formed
    # pointwise and integrated by its Frobenius norm; consistency_report
    # integrates |v - a| |v| instead, the same rank-one norm
    v = ld.random_solenoidal(grid16, seed=22)
    band = ld.spectral.integration_band(grid16)
    vb = ld.SpectralField(grid16, band.restrict(v.coeffs), band=band)
    vp = ld.to_physical(vb)
    for delta, order in ((0.3, 1), (0.5, 0), (0.5, 2)):
        spec = ld.FilterSpec(delta=delta, order=order)
        a = ld.to_physical(ld.apply_hn(vb, spec))
        tensor = np.einsum("i...,j...->ij...", a, vp) - np.einsum("i...,j...->ij...", vp, vp)
        reference = np.sqrt((tensor**2).sum(axis=(0, 1))).sum() * (2 * np.pi / 16) ** 3
        rep = diagnostics.consistency_report(v, spec)
        assert rep.l1_tau == pytest.approx(reference, rel=1e-13)
        assert 0.5 < rep.ratio < 1.0  # a spread spectrum sits strictly under the sharp bound


def test_consistency_report_dominated_by_bounds(grid16):
    v = ld.taylor_green(grid16)
    for delta in (0.4, 0.1, 0.025):
        for order in (0, 1, 3):
            rep = diagnostics.consistency_report(v, ld.FilterSpec(delta=delta, order=order))
            assert rep.l1_tau <= rep.bound_sharp * (1 + 1e-12)
            assert rep.bound_sharp <= rep.bound_crude * (1 + 1e-12)
            assert 0 < rep.ratio <= 1 + 1e-12
            # Taylor-Green lies on one shell, where the sharp bound is an equality
            assert abs(rep.ratio - 1) <= 1e-14


def test_consistency_rate_against_multiplier(grid16):
    # on the pure shell-3 field the sharp bound collapses to the multiplier
    v = ld.taylor_green(grid16)
    for order in (0, 2):
        r1 = diagnostics.consistency_report(v, ld.FilterSpec(delta=0.1, order=order))
        r2 = diagnostics.consistency_report(v, ld.FilterSpec(delta=0.05, order=order))
        predicted = ld.deconv_error_multiplier(np.sqrt(3.0), ld.FilterSpec(delta=0.1, order=order)) / \
            ld.deconv_error_multiplier(np.sqrt(3.0), ld.FilterSpec(delta=0.05, order=order))
        assert r1.bound_sharp / r2.bound_sharp == pytest.approx(predicted, rel=1e-10)
        assert r1.l1_tau / r2.l1_tau == pytest.approx(predicted, rel=1e-12)


def test_filter_error_equality_and_bounds(grid16):
    u = ld.random_solenoidal(grid16, seed=21)
    for delta in (0.5, 0.1):
        rows = diagnostics.filter_error_bounds_check(u, ld.FilterSpec(delta=delta), max_beta_order=2)
        assert len(rows) == 10
        for row in rows:
            assert row.lhs == pytest.approx(row.eq_rhs, rel=1e-12)
            assert row.lhs <= row.bound_laplacian * (1 + 1e-12)
            assert row.lhs <= row.bound_gradient * (1 + 1e-12)


def test_filter_error_rejects_high_order(grid16):
    u = ld.random_solenoidal(grid16, seed=21)
    with pytest.raises(ValueError):
        diagnostics.filter_error_bounds_check(u, ld.FilterSpec(delta=0.5), max_beta_order=3)


def test_model_error_zero_on_identical(grid16):
    cfg = ld.SolverConfig(grid=grid16, model=ld.ModelKind.nse(), nu=0.1,
                          dt=0.01, t_end=0.05, snapshot_every=1)
    traj = ld.run(cfg)
    err = diagnostics.model_error(traj, traj)
    assert err.l2_final == 0.0
    assert err.l2l2 == 0.0
    assert err.h1_timeavg == 0.0


def _nse_run(grid, t_end=0.02):
    return ld.run(ld.SolverConfig(grid=grid, model=ld.ModelKind.nse(), nu=0.1,
                                  dt=0.01, t_end=t_end, snapshot_every=1))


def test_model_error_mismatch_detection(grid8, grid16):
    # two grids are no mismatch: both compare on the coarser grid's integration band
    t8, t16 = _nse_run(grid8), _nse_run(grid16)
    band = ld.spectral.integration_band(grid8)
    by_hand = SimpleNamespace(snapshots=[ld.SpectralField(grid8, band.restrict(s.coeffs), s.t, band)
                                         for s in t16.snapshots])
    err = diagnostics.model_error(t8, t16)
    # dataclass equality: every norm bit for bit, and the band's cutoff
    assert err == diagnostics.model_error(t16, t8) == diagnostics.model_error(t8, by_hand)
    assert err.cutoff == band.cutoff == 2
    assert err.l2_final > 0.0  # the 16^3 run fills modes the 8^3 one cannot hold
    for longer in (_nse_run(grid8, t_end=0.03), _nse_run(grid16, t_end=0.03)):
        with pytest.raises(ValueError, match="times"):
            diagnostics.model_error(t8, longer)


def test_model_error_walks_generators_once(grid8):
    # compare reads its snapshots lazily; a count mismatch is still one of times,
    # and any other error inside the walk keeps its own message
    traj = _nse_run(grid8, t_end=0.03)
    lazy = SimpleNamespace(snapshots=(s for s in traj.snapshots))
    assert diagnostics.model_error(lazy, traj) == diagnostics.model_error(traj, traj)
    for short in (traj.snapshots[:-1], traj.snapshots[1:]):
        with pytest.raises(ValueError, match="mismatched snapshot times"):
            diagnostics.model_error(SimpleNamespace(snapshots=iter(short)), traj)
    bad = SimpleNamespace(coeffs=np.zeros((3, 8, 8, 7), dtype=np.complex128), t=0.0, grid=grid8)
    with pytest.raises(ValueError, match="neither a full grid nor a band"):
        diagnostics.model_error(SimpleNamespace(snapshots=[bad, *traj.snapshots[1:]]), traj)


def test_model_error_known_difference(grid16):
    # trajectories that differ by a fixed field at every snapshot
    cfg = ld.SolverConfig(grid=grid16, model=ld.ModelKind.nse(), nu=0.1,
                          dt=0.01, t_end=0.04, snapshot_every=1)
    traj = ld.run(cfg)
    offset = ld.single_mode(grid16, (4, 0, 0), amplitude=0.1)
    shifted = [ld.SpectralField(grid16, s.padded().coeffs + offset.coeffs, s.t) for s in traj.snapshots]

    class Shim:
        snapshots = shifted

    err = diagnostics.model_error(Shim(), traj)
    d = ld.hs_norm(offset, 0)
    assert err.l2_final == pytest.approx(d, rel=1e-12)
    assert err.l2l2 == pytest.approx(d * np.sqrt(0.04), rel=1e-12)
    assert err.h1_timeavg == pytest.approx(4.0 * d, rel=1e-12)


def test_model_error_ignores_full_grid_content_outside_the_band(grid16):
    # mode 7 lies outside the 16^3 integration band (cutoff 5), which no run
    # fills, so an offset there is not compared
    traj = _nse_run(grid16, t_end=0.04)
    offset = ld.single_mode(grid16, (7, 0, 0), amplitude=0.1)
    shifted = SimpleNamespace(snapshots=[ld.SpectralField(grid16, s.padded().coeffs + offset.coeffs, s.t)
                                         for s in traj.snapshots])
    err = diagnostics.model_error(shifted, traj)
    assert (err.l2_final, err.l2l2, err.h1_timeavg, err.cutoff) == (0.0, 0.0, 0.0, 5)


def test_model_error_pads_nothing():
    """Guard: diagnostics compares fields on a band restricted to, never on a
    padded full grid."""
    tree = ast.parse(Path(diagnostics.__file__).read_text())
    assert [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "padded"] == []


# The diagnostics commute with the box's symmetries (conftest's maps).  The
# fields are synthetic band snapshots, seeded random fields mapped on the full
# grid and restricted to the integration band as a run holds them; nothing is
# integrated.
def _band_snapshot(f, symmetry=None, t=0.0):
    c = f.coeffs if symmetry is None else symmetry(f.coeffs, f.grid)
    band = ld.spectral.integration_band(f.grid)
    return ld.SpectralField(f.grid, band.restrict(c), t, band)


def _unchanged(a, b, names, scales):
    """Whether each named value of b equals a's within the tolerance of its scale."""
    return all(abs(getattr(b, name) - getattr(a, name)) <= SYMMETRY_TOLERANCE * scale
               for name, scale in zip(names, scales))


@pytest.mark.parametrize("axis", [0, 1, 2], ids=["x", "y", "z"])
def test_energy_record_is_unchanged_by_a_one_cell_shift(grid16, axis):
    state, forcing = ld.random_solenoidal(grid16, seed=3), ld.random_solenoidal(grid16, seed=5)
    names = ("energy", "h1_seminorm_sq", "dissipation", "input_power")

    def record(state_map, forcing_map):
        return diagnostics.energy_record(_band_snapshot(state, state_map), 0.3, _band_snapshot(forcing, forcing_map))

    before = record(None, None)
    # input power is bounded by ||f|| ||w||, the scale it is compared at
    scales = (before.energy, before.h1_seminorm_sq, before.dissipation, ld.hs_norm(state, 0) * ld.hs_norm(forcing, 0))
    assert _unchanged(before, record(shift(axis), shift(axis)), names, scales)
    # the state shifted under a fixed forcing meets it at another phase
    assert not _unchanged(before, record(shift(axis), None), names, scales)


def test_consistency_report_is_unchanged_by_a_reflection(grid16):
    v = ld.random_solenoidal(grid16, seed=7)
    spec = ld.FilterSpec(delta=0.3, order=2)
    before = diagnostics.consistency_report(_band_snapshot(v), spec)
    after = diagnostics.consistency_report(_band_snapshot(v, reflect(0)), spec)
    names = ("l1_tau", "bound_sharp", "bound_crude")
    assert _unchanged(before, after, names, [getattr(before, name) for name in names])


@pytest.mark.parametrize("symmetry", [swap_xy, reflect(0), reflect(2), shift(1), shift(2, half_box=True)],
                         ids=["swap-xy", "reflect-x", "reflect-z", "shift-y", "half-shift-z"])
def test_model_error_is_unchanged_when_both_runs_are_mapped_alike(grid16, symmetry):
    times = (0.0, 0.1, 0.2)
    reference = [ld.random_solenoidal(grid16, seed=seed) for seed in (1, 2, 3)]
    model = [f.with_coeffs(f.coeffs + 0.01 * ld.random_solenoidal(grid16, seed=10 + i).coeffs)
             for i, f in enumerate(reference)]

    def snapshots(fields, symmetry=None):
        return SimpleNamespace(snapshots=[_band_snapshot(f, symmetry, t) for f, t in zip(fields, times)])

    before = diagnostics.model_error(snapshots(model), snapshots(reference))
    names = ("l2_final", "l2l2", "h1_timeavg")
    scales = [getattr(before, name) for name in names]
    after = diagnostics.model_error(snapshots(model, symmetry), snapshots(reference, symmetry))
    assert after.cutoff == before.cutoff and _unchanged(before, after, names, scales)
    # mapping one run alone moves it off the other
    assert not _unchanged(before, diagnostics.model_error(snapshots(model, symmetry), snapshots(reference)),
                          names, scales)
