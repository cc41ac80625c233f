import ast
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import leraydec as ld
from leraydec import diagnostics, spectral

from conftest import SYMMETRY_TOLERANCE, band_mask, hermitian, inner, k_linf, reflect, rel_l2, shift, swap_xy


def _cfg(grid, model="nse", order=0, delta=0.5, nu=0.05, dt=0.01, t_end=0.1, **kw):
    kind = ld.ModelKind.nse() if model == "nse" else ld.ModelKind.leray_deconvolution(order)
    fspec = None if model == "nse" else ld.FilterSpec(delta=delta, order=order)
    return ld.SolverConfig(grid=grid, model=kind, nu=nu, dt=dt, t_end=t_end, filter=fspec, **kw)


def test_config_validation(grid8):
    with pytest.raises(ValueError, match="viscosity"):
        _cfg(grid8, nu=-0.1)
    with pytest.raises(ValueError, match="dt"):
        _cfg(grid8, dt=0.0)
    with pytest.raises(ValueError, match="t_end"):
        _cfg(grid8, dt=0.1, t_end=0.05)
    with pytest.raises(ValueError, match="snapshot_every"):
        _cfg(grid8, snapshot_every=0)
    with pytest.raises(ValueError, match="filter"):
        ld.SolverConfig(grid=grid8, model=ld.ModelKind.leray_deconvolution(2),
                        nu=0.1, dt=0.01, t_end=0.1)
    with pytest.raises(ValueError, match="order"):
        ld.SolverConfig(grid=grid8, model=ld.ModelKind.leray_deconvolution(2),
                        nu=0.1, dt=0.01, t_end=0.1, filter=ld.FilterSpec(delta=0.5, order=3))


@pytest.mark.parametrize("helper", [ld.nonlinear_term])
@pytest.mark.parametrize("model, fspec, match", [
    pytest.param(ld.ModelKind.leray_deconvolution(2), None, "requires a filter",
                 id="model0-None-advective-requires a filter"),
    pytest.param(ld.ModelKind.leray_deconvolution(2), ld.FilterSpec(delta=0.5, order=3),
                 "disagrees with model order",
                 id="model1-fspec1-advective-disagrees with model order"),
])
def test_helpers_reject_what_solver_config_rejects(grid8, helper, model, fspec, match):
    with pytest.raises(ValueError, match=match) as from_config:
        ld.SolverConfig(grid=grid8, model=model, nu=0.1, dt=0.01, t_end=0.1, filter=fspec)
    with pytest.raises(ValueError) as from_helper:
        helper(ld.taylor_green(grid8), model, fspec)
    assert str(from_helper.value) == str(from_config.value)


def test_steps_requires_integer_multiple(grid8):
    cfg = _cfg(grid8, dt=0.01, t_end=0.1)
    assert cfg.steps == 10
    with pytest.raises(ValueError, match="integer multiple"):
        _ = _cfg(grid8, dt=0.03, t_end=0.1).steps


def test_model_kind():
    assert not ld.ModelKind.nse().is_regularized
    assert ld.ModelKind.leray_deconvolution(3).is_regularized
    with pytest.raises(ValueError):
        ld.ModelKind("euler")
    with pytest.raises(ValueError):
        ld.ModelKind("leray_deconv", order=-1)
    # FilterSpec's cap for the regularized family, order 0 alone for the NSE
    assert ld.ModelKind.leray_deconvolution(64).order == 64
    for model, reason in ((lambda: ld.ModelKind.leray_deconvolution(65), "must be in [0, 64], got 65"),
                          (lambda: ld.ModelKind("nse", 3), "must be in [0, 0], got 3")):
        with pytest.raises(ld.ParameterError, match=re.escape(reason)) as err:
            model()
        assert err.value.parameter == "order"


def test_cfl_max_dt_single_mode(grid16):
    f = ld.single_mode(grid16, (1, 0, 0), amplitude=2.0)
    dx = 2.0 * np.pi / 16
    assert ld.cfl_max_dt(f) == pytest.approx(dx / 2.0, rel=1e-12)


def test_cfl_advisory_warning(grid8):
    cfg = _cfg(grid8, nu=0.0, dt=2.0, t_end=2.0,
               ic=ld.FieldSpec(kind="taylor_green"))
    with pytest.warns(ld.CFLAdvisory):
        try:
            ld.run(cfg)
        except ld.BlowUpError:
            pass


def test_pure_viscous_decay_exact(grid16):
    # single transverse mode: the advection term vanishes identically, so
    # the integrating factor must reproduce exp(-nu k^2 t) to rounding
    cfg = _cfg(grid16, nu=0.3, dt=0.02, t_end=0.2,
               ic=ld.FieldSpec(kind="single_mode", mode=(1, 0, 0)))
    traj = ld.run(cfg)
    w0 = traj.snapshots[0]
    exact = w0.with_coeffs(w0.coeffs * np.exp(-0.3 * 0.2))
    assert rel_l2(traj.terminal, exact) < 1e-13


def test_inviscid_single_mode_is_steady(grid16):
    cfg = _cfg(grid16, nu=0.0, dt=0.02, t_end=0.2,
               ic=ld.FieldSpec(kind="single_mode", mode=(1, 0, 0)))
    traj = ld.run(cfg)
    assert rel_l2(traj.terminal, traj.snapshots[0]) == 0.0


def test_abc_flow_exact_solution(grid16):
    # Beltrami field: the projected nonlinearity vanishes, so the flow decays
    # exponentially under both the plain and the regularized dynamics
    for model, order in [("nse", 0), ("leray_deconv", 2)]:
        cfg = _cfg(grid16, model=model, order=order, nu=0.1, dt=0.005, t_end=0.1,
                   ic=ld.FieldSpec(kind="abc_flow"),
                   filter_ic=False)
        traj = ld.run(cfg)
        w0 = traj.snapshots[0]
        exact = w0.with_coeffs(w0.coeffs * np.exp(-0.1 * 0.1))
        assert rel_l2(traj.terminal, exact) < 1e-12


def test_nonlinear_orthogonality(grid16):
    w = ld.random_solenoidal(grid16, seed=8)
    for model, fspec in [
        (ld.ModelKind.nse(), None),
        (ld.ModelKind.leray_deconvolution(3), ld.FilterSpec(delta=0.5, order=3)),
    ]:
        nl = ld.nonlinear_term(w, model, fspec)
        wb = w.with_coeffs(w.coeffs * band_mask(grid16))
        scale = ld.hs_norm(wb, 0) * ld.hs_norm(nl, 0)
        assert abs(inner(nl, wb)) < 1e-12 * max(scale, 1.0)


def test_nonlinear_zero_for_shear(grid16):
    w = ld.single_mode(grid16, (1, 0, 0))
    nl = ld.nonlinear_term(w, ld.ModelKind.nse())
    assert ld.hs_norm(nl, 0) < 1e-15


def test_nonlinear_term_matches_closed_form_smoother(grid16):
    # the kernel's van Cittert advecting velocity against the closed-form
    # smoother h_N, with the advection term rebuilt from collocation products
    w = ld.random_solenoidal(grid16, seed=5)
    spec = ld.FilterSpec(delta=0.5, order=2)
    model = ld.ModelKind.leray_deconvolution(2)
    g = grid16
    n = g.n

    wb = w.coeffs * band_mask(g)
    adv_phys = spectral.to_physical(ld.apply_hn(ld.SpectralField(g, wb), spec))
    conv = np.zeros((3, n, n, n))
    for j, kj in enumerate(g.wavevectors()):
        dw_j = np.fft.ifftn(1j * kj * wb, axes=(1, 2, 3)).real * n**3
        conv += adv_phys[j] * dw_j
    unprojected = -(np.fft.fftn(conv, axes=(1, 2, 3)) / n**3) * band_mask(g)

    projected = ld.leray_project(ld.SpectralField(g, unprojected))
    assert rel_l2(projected, ld.nonlinear_term(w, model, spec)) < 1e-12


def test_run_determinism(grid16):
    cfg = _cfg(grid16, model="leray_deconv", order=1, nu=0.02, dt=0.01, t_end=0.05,
               ic=ld.FieldSpec(kind="random_solenoidal", seed=3))
    a = ld.run(cfg)
    b = ld.run(cfg)
    assert np.array_equal(a.terminal.coeffs, b.terminal.coeffs)
    assert [r.energy for r in a.records] == [r.energy for r in b.records]


def test_step_matches_run(grid16):
    cfg = _cfg(grid16, model="leray_deconv", order=2, nu=0.05, dt=0.01, t_end=0.03,
               ic=ld.FieldSpec(kind="taylor_green"), snapshot_every=1)
    traj = ld.run(cfg)
    state = traj.snapshots[0]
    for expected in traj.snapshots[1:]:
        state = ld.step(state, cfg)
        np.testing.assert_allclose(state.coeffs, expected.padded().coeffs, rtol=0, atol=1e-15)
        assert state.t == pytest.approx(expected.t, abs=1e-12)


@pytest.mark.parametrize("state_n, run_n", [(16, 8), (8, 16)])
def test_a_state_from_another_grid_is_rejected_not_regridded(state_n, run_n):
    # restricted blindly, a 16^3 state's rows k = 6, 7 would be read as
    # k = -2, -1 of the 8^3 band, and an 8^3 state would not fit a 16^3 one
    state = ld.taylor_green(ld.Grid(state_n))
    with pytest.raises(ValueError, match=rf"state on Grid\(n={state_n}\) given for a run on Grid\(n={run_n}\)"):
        ld.step(state, _cfg(ld.Grid(run_n), dt=0.01, t_end=0.01))


def test_nonlinear_term_agrees_across_grids_on_the_common_band(grid8, grid16):
    # nonlinear_term runs on its state's grid; Taylor-Green's products reach
    # only |k|_inf <= 2, inside both dealias bands, so the two grids' terms
    # agree on either band, restricted up or down
    model, spec = ld.ModelKind.leray_deconvolution(2), ld.FilterSpec(delta=0.3, order=2)
    coarse = ld.nonlinear_term(ld.taylor_green(grid8), model, spec).coeffs
    fine = ld.nonlinear_term(ld.taylor_green(grid16), model, spec).coeffs
    assert np.abs(coarse).max() > 0.01
    for band in (spectral.integration_band(grid8), spectral.integration_band(grid16)):
        np.testing.assert_allclose(band.restrict(coarse), band.restrict(fine), rtol=0, atol=1e-16)


# the dealiasing the cases below pin, named in their ids
_DEALIAS = [ld.SolverConfig.dealias]


@pytest.mark.parametrize("dealias", _DEALIAS)
def test_solenoidal_preserved(grid16, dealias):
    cfg = _cfg(grid16, model="leray_deconv", order=1, nu=0.01, dt=0.01, t_end=0.1,
               ic=ld.FieldSpec(kind="random_solenoidal", seed=12),
               forcing=ld.FieldSpec(kind="single_mode", mode=(0, 1, 0), amplitude=0.3))
    traj = ld.run(cfg)
    assert ld.solenoidal_defect(traj.terminal) < 1e-13
    ld.validate_field(traj.terminal, solenoidal=True)


def test_snapshot_cadence(grid8):
    cfg = _cfg(grid8, dt=0.01, t_end=0.1, snapshot_every=4)
    traj = ld.run(cfg)
    assert traj.times == pytest.approx([0.0, 0.04, 0.08, 0.1])
    assert traj.stats.steps == 10
    assert len(traj.records) == 11


def test_stats_counters(grid16):
    cfg = _cfg(grid16, model="leray_deconv", order=3, nu=0.05, dt=0.01, t_end=0.05)
    traj = ld.run(cfg)
    assert traj.stats.steps == 5
    assert traj.stats.rhs_evals == 15
    assert traj.stats.filter_applications == 4 * 15
    assert traj.stats.deconv_seconds > 0.0
    assert traj.stats.wall_seconds > 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_blow_up_raises_with_partial_trajectory(grid8):
    cfg = _cfg(grid8, nu=0.0, dt=5.0, t_end=50.0,
               ic=ld.FieldSpec(kind="taylor_green", amplitude=100.0))
    with pytest.warns(ld.CFLAdvisory):
        with pytest.raises(ld.BlowUpError) as info:
            ld.run(cfg)
    err = info.value
    assert err.step >= 1
    traj = err.trajectory
    assert len(traj.records) == err.step  # records up to the last finite state
    assert all(np.isfinite(r.energy) for r in traj.records)
    assert np.all(np.isfinite(traj.terminal.coeffs))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_nonfinite_initial_record_blows_up_at_step_zero(grid8):
    # the sum of squares of a 1e160 amplitude overflows in the t = 0 record
    cfg = _cfg(grid8, ic=ld.FieldSpec(kind="taylor_green", amplitude=1e160))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ld.CFLAdvisory)  # no step, so no CFL advisory
        with pytest.raises(ld.BlowUpError, match=r"blew up at step 0 \(t = 0\)") as info:
            ld.run(cfg)
    err = info.value
    assert (err.step, err.t) == (0, 0.0)
    traj = err.trajectory
    assert traj.records == [] and traj.snapshots == [] and traj.times == []
    assert traj.stats.steps == 0


def test_forcing_filtered_when_requested(grid16):
    fspec = ld.FilterSpec(delta=0.5, order=1)
    raw = ld.leray_project(ld.single_mode(grid16, (0, 2, 0), amplitude=1.0))
    h3 = ld.apply_hn(raw, fspec)
    base = dict(model="leray_deconv", order=1, nu=0.1, dt=0.01, t_end=0.01,
                ic=ld.FieldSpec(kind="zero"),
                forcing=ld.FieldSpec(kind="single_mode", mode=(0, 2, 0), amplitude=1.0))
    on = ld.run(_cfg(grid16, filter_forcing=True, **base))
    off = ld.run(_cfg(grid16, filter_forcing=False, **base))
    # with a zero initial state the first record's input power is zero both
    # ways; compare the states after one step instead
    ratio = ld.hs_norm(on.terminal, 0) / ld.hs_norm(off.terminal, 0)
    expected = ld.transfer_hn(2.0, fspec)
    assert ratio == pytest.approx(expected, rel=1e-10)


def test_ic_filtered_when_requested(grid16):
    fspec = ld.FilterSpec(delta=0.5, order=2)
    base = dict(model="leray_deconv", order=2, nu=0.1, dt=0.01, t_end=0.01,
                ic=ld.FieldSpec(kind="taylor_green"))
    on = ld.run(_cfg(grid16, filter_ic=True, **base))
    off = ld.run(_cfg(grid16, filter_ic=False, **base))
    expected = ld.apply_hn(off.snapshots[0], fspec)
    assert rel_l2(on.snapshots[0], expected) < 1e-13


def test_inviscid_energy_conservation_short(grid8):
    cfg = _cfg(grid8, model="leray_deconv", order=1, delta=0.3, nu=0.0,
               dt=0.005, t_end=0.05, ic=ld.FieldSpec(kind="taylor_green"))
    traj = ld.run(cfg)
    e = [r.energy for r in traj.records]
    assert abs(e[-1] - e[0]) / e[0] < 1e-9


def _reference_nonlinear(w, model, fspec):
    """The allocate-per-operation right-hand side the workspace kernel
    replaced, on the full grid; the input and the forward transform's output
    get the exact conjugate kz < 0 half the kernel's half band implies."""
    g = w.grid
    n3 = g.n**3
    mask = band_mask(g)
    w = hermitian(w.coeffs * mask)
    if model.is_regularized:
        g_hat = ld.transfer_g(g.k_mag, fspec)
        wbar = g_hat * w
        adv = wbar.copy()
        for _ in range(model.order):
            adv += wbar - g_hat * adv
    else:
        adv = w
    adv_phys = np.fft.ifftn(adv, axes=(1, 2, 3)).real * n3
    conv = np.zeros(w.shape)
    for j, kj in enumerate(g.wavevectors()):
        dw_j = np.fft.ifftn(1j * kj * w, axes=(1, 2, 3)).real * n3
        conv += adv_phys[j] * dw_j
    out = hermitian(-(np.fft.fftn(conv, axes=(1, 2, 3)) / n3))
    out *= mask
    dot = g.kx * out[0] + g.ky * out[1] + g.kz * out[2]
    factor = dot / g._k_sq_safe
    out[0] -= g.kx * factor
    out[1] -= g.ky * factor
    out[2] -= g.kz * factor
    return out


_MODELS = [(ld.ModelKind.nse(), None),
           (ld.ModelKind.leray_deconvolution(3), ld.FilterSpec(delta=0.5, order=3))]
# the convective form the bit-identity cases pin, named in their ids
_FORMS = [ld.SolverConfig.conv_form]


@pytest.mark.parametrize("conv_form", _FORMS)
@pytest.mark.parametrize("dealias", _DEALIAS)
@pytest.mark.parametrize("model,fspec", _MODELS, ids=["nse", "order3"])
def test_workspace_kernel_is_bit_identical_to_allocating_one(grid16, model, fspec, dealias, conv_form):
    w = ld.random_solenoidal(grid16, seed=21)
    nl = ld.nonlinear_term(w, model, fspec).coeffs
    assert np.array_equal(nl, _reference_nonlinear(w, model, fspec))
    # a later call must not write into an earlier call's result
    nl_kept = nl.copy()
    ld.nonlinear_term(ld.random_solenoidal(grid16, seed=22), model, fspec)
    assert np.array_equal(nl, nl_kept)


def _reference_advance(u, cfg, forcing=None):
    """The low-storage RK3 step with the integrating factor on full-grid
    coefficients, allocating as it goes."""
    g = cfg.grid
    a, b, c = ld.solver._RK_A, ld.solver._RK_B, ld.solver._RK_C
    decays = [np.exp(-cfg.nu * g.k_sq * cfg.dt * gap) for gap in (c[1], c[2] - c[1], 1.0 - c[2])]
    p = np.zeros_like(u)
    for s in range(3):
        if s > 0:
            u *= decays[s - 1]
            p *= decays[s - 1]
        rhs = _reference_nonlinear(ld.SpectralField(g, u), cfg.model, cfg.filter)
        if forcing is not None:
            rhs += forcing
        p = cfg.dt * rhs if s == 0 else a[s] * p + cfg.dt * rhs
        u = u + b[s] * p
    u *= decays[2]
    return u


def test_step_is_bit_identical_and_leaves_its_input_alone(grid16):
    cfg = _cfg(grid16, model="leray_deconv", order=3, nu=0.05, dt=0.01, t_end=0.01)
    state = ld.random_solenoidal(grid16, seed=23)
    kept = state.coeffs.copy()
    out = ld.step(state, cfg).coeffs
    assert np.array_equal(state.coeffs, kept)
    assert np.array_equal(out, _reference_advance(hermitian(state.coeffs * band_mask(grid16)), cfg))


def _reference_run(cfg):
    """Snapshots and records of a run integrated on the full grid with a
    mask multiply for the dealiasing, as the stepper did before it kept only
    the band, with the initial condition and forcing completed to exact
    conjugate symmetry; the records are formed by the run's own sum core."""
    g = cfg.grid
    mask = band_mask(g)

    def prepared(spec, smooth):
        coeffs = hermitian(ld.leray_project(spec.evaluate(g)).coeffs * mask)
        if cfg.model.is_regularized and smooth:
            coeffs = coeffs * ld.transfer_hn(g.k_mag, cfg.filter)
        return coeffs

    band = spectral.integration_band(g)

    def record(u, t):
        # the run's records are sums over the band, in the band's order
        forcing = ld.SpectralField(g, band.restrict(f), band=band)
        return diagnostics.energy_record(ld.SpectralField(g, band.restrict(u), t, band), cfg.nu, forcing)

    u = prepared(cfg.ic, cfg.filter_ic)
    f = prepared(cfg.forcing, cfg.filter_forcing)
    snapshots = [u.copy()]
    records = [record(u, 0.0)]
    for m in range(1, cfg.steps + 1):
        u = _reference_advance(u, cfg, f)
        records.append(record(u, m * cfg.dt))
        if m % cfg.snapshot_every == 0 or m == cfg.steps:
            snapshots.append(u.copy())
    return snapshots, diagnostics.attach_balance_residuals(records)


@pytest.mark.parametrize("conv_form", _FORMS)
@pytest.mark.parametrize("dealias", _DEALIAS)
@pytest.mark.parametrize("model,fspec", _MODELS, ids=["nse", "order3"])
def test_run_is_bit_identical_to_the_full_layout_reference(grid16, model, fspec, dealias, conv_form):
    cfg = ld.SolverConfig(grid=grid16, model=model, filter=fspec, nu=0.05, dt=0.01, t_end=0.03,
                          ic=ld.FieldSpec(kind="random_solenoidal", seed=24),
                          forcing=ld.FieldSpec(kind="taylor_green", amplitude=0.5),
                          snapshot_every=2)
    traj = ld.run(cfg)
    snapshots, records = _reference_run(cfg)
    assert len(traj.snapshots) == len(snapshots) == 3
    assert all(np.array_equal(got.padded().coeffs, want) for got, want in zip(traj.snapshots, snapshots))
    assert traj.records == records


def _stepper_of_a_forced_run(grid, monkeypatch, spy=None):
    """The stepper of a forced order-2 run, as the run left it; spy, if
    given, is called with the input of every numpy inverse FFT."""
    made = []

    class Recorded(ld.solver._Stepper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(ld.solver, "_Stepper", Recorded)
    if spy is not None:
        ifftn = np.fft.ifftn

        def spied(c, *args, **kwargs):
            spy(c)
            return ifftn(c, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifftn", spied)
    cfg = _cfg(grid, model="leray_deconv", order=2, t_end=0.03,
               ic=ld.FieldSpec(kind="random_solenoidal", seed=25),
               forcing=ld.FieldSpec(kind="taylor_green", amplitude=0.5))
    ld.run(cfg)
    (stepper,) = made
    return stepper


def test_padded_transform_input_stays_zero_outside_the_band(grid8, monkeypatch):
    inputs = []
    stepper = _stepper_of_a_forced_run(grid8, monkeypatch, spy=lambda c: inputs.append(c.copy()))
    # per step three right-hand sides of four inverse transforms, plus the CFL limit's
    assert len(inputs) == 3 * 3 * 4 + 1
    for c in inputs:
        outside = c[:, k_linf(grid8) > stepper.band.cutoff]
        assert outside.size > 0
        assert np.all(outside == 0)
        assert not (np.signbit(outside.real).any() or np.signbit(outside.imag).any())


def test_stepper_holds_nothing_full_grid_but_its_transform_workspace(grid8, monkeypatch):
    stepper = _stepper_of_a_forced_run(grid8, monkeypatch)
    assert stepper.f_eff is not None
    full = []
    held = [*vars(stepper).items(), *((f"grid.{k}", v) for k, v in vars(stepper.grid).items())]
    for name, value in held:
        for i, a in enumerate(value if isinstance(value, list) else [value]):
            a = a.coeffs if isinstance(a, ld.SpectralField) else a
            # elements per component: the product of the three grid axes
            if isinstance(a, np.ndarray) and np.prod(a.shape[-3:]) >= grid8.n**3:
                full.append((name, i, a.dtype.kind, a.shape))
    # one complex transform buffer and two real ones, the advecting-velocity
    # samples and the product accumulator; the grid holds none
    shape = (3,) + (grid8.n,) * 3
    assert sorted(full) == [("rwork", 0, "f", shape), ("rwork", 1, "f", shape),
                            ("spectrum", 0, "c", shape)]
    # the kz >= 0 half of the band: every band array the run holds has this shape
    side, c = stepper.band.side, stepper.band.cutoff
    half = (3, side, side, c + 1)
    assert stepper.band.shape == half
    band_arrays = [stepper.u, stepper.p, stepper.f_eff, *stepper.cwork, *(s.coeffs for s in stepper.snapshots)]
    assert [a.shape for a in band_arrays] == [half] * len(band_arrays)
    assert [a.shape for a in (*stepper.decays, stepper.g_hat)] == [half[1:]] * 4
    # two complex band buffers; van Cittert's scratch is the transform buffer's head
    assert [(a.dtype.kind, a.shape) for a in stepper.cwork] == [("c", half)] * 2
    assert stepper.vc_scratch.shape == half
    assert np.shares_memory(stepper.vc_scratch, stepper.spectrum)
    assert not any(np.shares_memory(stepper.vc_scratch, a) for a in stepper.cwork)


def test_run_keeps_its_snapshots_on_the_band(grid16):
    cfg = _cfg(grid16, model="leray_deconv", order=2, t_end=0.08, snapshot_every=1,
               ic=ld.FieldSpec(kind="random_solenoidal", seed=25),
               forcing=ld.FieldSpec(kind="taylor_green", amplitude=0.5))
    ld.run(replace(cfg, t_end=cfg.dt))  # FFT plans and caches are not the run's
    tracemalloc.start()
    try:
        traj = ld.run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n, c = grid16.n, grid16.dealias_cutoff
    full, band = 3 * n**3 * 16, 3 * (2 * c + 1) ** 2 * (c + 1) * 16
    assert len(traj.snapshots) == cfg.steps + 1
    assert sum(s.coeffs.nbytes for s in traj.snapshots) == len(traj.snapshots) * band
    assert traj.terminal.coeffs.shape == (3, n, n, n)
    # Full-grid arrays at the peak: the transform workspace (two complex
    # arrays' worth), numpy's complex copy of the real product inside fftn,
    # and one for transients.  Band arrays: the snapshots, plus the state,
    # its carry, the forcing and the two complex buffers.  Snapshots kept
    # on the full grid would pass this by more than three full arrays.
    assert peak < 4 * full + (len(traj.snapshots) + 5) * band


def test_only_observe_forms_records_and_only_run_observes():
    """Guard: in solver.py only _Stepper.observe calls
    diagnostics.energy_record, and only run calls observe, so every record,
    the one at t = 0 included, passes one finiteness check and per-step
    monitors have one place to go."""
    calls = set()

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name)):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            if name in ("energy_record", "observe"):
                calls.add((name, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(Path(ld.solver.__file__).read_text()), "")
    assert calls == {("energy_record", "_Stepper.observe"), ("observe", "run")}


def test_every_solver_entry_point_builds_one_run_object(grid8, monkeypatch):
    """run, step and nonlinear_term each build exactly one _Stepper, the one
    class that holds a run; the advection kernel has no class of its own."""
    made = []

    class Recorded(ld.solver._Stepper):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(ld.solver, "_Stepper", Recorded)
    cfg = _cfg(grid8, model="leray_deconv", order=2, t_end=0.02)
    state = ld.taylor_green(grid8)
    counts = []
    for call in (lambda: ld.solver.run(cfg), lambda: ld.solver.step(state, cfg),
                 lambda: ld.solver.nonlinear_term(state, cfg.model, cfg.filter)):
        made.clear()
        call()
        counts.append(len(made))
    assert counts == [1, 1, 1]
    assert not hasattr(ld.solver, "_Advection")


# step and nonlinear_term must commute with each of a generating set of the
# box's symmetries (conftest's maps).  Taylor-Green forcing of amplitude a maps
# to itself at amplitude -a under the x/y swap and a half-box shift, and at +a
# under a reflection, so forced steps commute with those maps when the
# forcing's amplitude is mapped alike.


def _swap_xy_axes_only(c, grid):  # a wrong component map: the axes swapped, the components not
    return c.transpose(0, 2, 1, 3)


def _five_steps(state, cfg):
    for _ in range(5):
        state = ld.step(state, cfg)
    return state.coeffs


def _advection(state, cfg):
    return ld.solver.nonlinear_term(state, cfg.model, cfg.filter).coeffs


@pytest.fixture(scope="module")
def symmetry_runs():
    """Per grid size: an order-3 start field; (config, op, the op's value on
    that field) for _five_steps and _advection; and the configs forced by
    Taylor-Green at amplitude +a and -a, by sign, with _five_steps' value at +a."""
    runs = {}
    for n in (8, 16):
        grid = ld.Grid(n)
        cfg = _cfg(grid, model="leray_deconv", order=3)
        forced = {sign: replace(cfg, forcing=ld.FieldSpec(kind="taylor_green", amplitude=0.7 * sign))
                  for sign in (1, -1)}
        start = ld.random_solenoidal(grid, seed=4)
        checks = [(cfg, op, op(start, cfg)) for op in (_five_steps, _advection)]
        runs[n] = start, checks, (forced, _five_steps(start, forced[1]))
    return runs


@pytest.mark.parametrize("symmetry, commutes, forcing_sign", [
    (swap_xy, True, -1), (reflect(0), True, 1), (reflect(1), True, 1), (reflect(2), True, 1),
    (shift(0), True, None), (shift(1), True, None), (shift(2), True, None),
    (shift(0, half_box=True), True, -1), (shift(1, half_box=True), True, -1),
    (shift(2, half_box=True), True, -1), (_swap_xy_axes_only, False, -1),
], ids=["swap-xy", "reflect-x", "reflect-y", "reflect-z", "shift-x", "shift-y", "shift-z",
        "half-shift-x", "half-shift-y", "half-shift-z", "wrong-component-map"])
def test_step_commutes_with_the_box_symmetries(symmetry_runs, symmetry, commutes, forcing_sign):
    """Five order-3 steps, and the nonlinear term, of a transformed field are
    the transformed ones, to a few rounding errors, at 8^3 and 16^3; so are
    five steps under Taylor-Green forcing, run with its amplitude times
    forcing_sign (a one-cell shift moves the forcing off itself); a wrong
    component map does not commute."""
    for n, (start, checks, (forced, forced_value)) in symmetry_runs.items():
        moved = start.with_coeffs(symmetry(start.coeffs, start.grid))
        if forcing_sign is not None:
            checks = [*checks, (forced[forcing_sign], _five_steps, forced_value)]
        for cfg, op, value in checks:
            defect = np.abs(op(moved, cfg) - symmetry(value, start.grid)).max() / np.abs(value).max()
            assert (defect <= SYMMETRY_TOLERANCE) == commutes, (n, op.__name__, cfg.forcing.amplitude, defect)
