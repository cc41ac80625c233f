import ast
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import leraydec as ld
from leraydec import spectral

from conftest import band_mask, energy, hermitian, inner, k_linf


def test_grid_validation():
    with pytest.raises(ValueError):
        ld.Grid(7)
    with pytest.raises(ValueError):
        ld.Grid(2)
    with pytest.raises(TypeError):  # the two-thirds rule is fixed
        ld.Grid(8, dealias_fraction=1.0)


def test_grid_wavenumbers(grid16):
    g = grid16
    assert g.kx.shape == (16, 1, 1)
    assert g.kx[1, 0, 0] == 1.0
    assert g.kx[-1, 0, 0] == -1.0
    assert g.kx[8, 0, 0] == -8.0  # Nyquist stored as negative
    assert g.k_sq[0, 0, 0] == 0.0
    assert g.k_sq[2, 3, 1] == 4 + 9 + 1


def test_on_demand_wavenumbers_equal_the_eager_expressions(grid16):
    g = grid16
    k1 = np.fft.fftfreq(16, 1.0 / 16)
    kx, ky, kz = k1.reshape(16, 1, 1), k1.reshape(1, 16, 1), k1.reshape(1, 1, 16)
    k_sq = kx**2 + ky**2 + kz**2
    k_sq_safe = k_sq.copy()
    k_sq_safe[0, 0, 0] = 1.0
    eager = {"k_sq": k_sq, "k_mag": np.sqrt(k_sq), "_k_sq_safe": k_sq_safe}
    for name, expected in eager.items():
        got = getattr(g, name)
        assert got.dtype == np.float64 and np.array_equal(got, expected)
        assert getattr(g, name) is not got and name not in vars(g)  # computed afresh, never cached
    assert g._k_sq_safe[0, 0, 0] == 1.0 and g.k_sq[0, 0, 0] == 0.0


@pytest.mark.parametrize("n", [16, 64])
def test_grid_holds_o_n_memory(n):
    tracemalloc.start()
    try:
        g = ld.Grid(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not [k for k, v in vars(g).items() if isinstance(v, np.ndarray) and v.size >= n**3]
    assert peak < 2**16


def test_dealias_cutoff_values():
    assert ld.Grid(8).dealias_fraction == 2.0 / 3.0
    assert ld.Grid(16).dealias_cutoff == 5
    assert ld.Grid(32).dealias_cutoff == 10
    assert ld.Grid(48).dealias_cutoff == 16


@pytest.mark.parametrize("dealias, side", [(ld.SolverConfig.dealias, 5)])  # the pinned dealiasing, in the id
def test_band_side_and_wavenumbers(dealias, side):
    g = ld.Grid(8)
    band = spectral.integration_band(g)
    # the z axis holds only kz = 0..c, the conjugates of the kz < 0 half
    assert band.side == side and band.shape == (3, side, side, band.cutoff + 1)
    # each band mode carries the wavenumbers of the grid mode it stands for
    for name in ("kx", "ky", "kz", "k_sq", "k_mag", "_k_sq_safe"):
        full = np.broadcast_to(getattr(g, name), (3, 8, 8, 8))
        assert np.array_equal(band.restrict(full), np.broadcast_to(getattr(band, name), band.shape))
    # the band stores the arrays the stepper reads every step
    assert {"k_sq", "k_mag", "_k_sq_safe"} <= set(vars(band))
    in_band = band_mask(g)
    assert np.array_equal(band.pad(np.ones(band.shape)) == 1, np.broadcast_to(in_band, (3, 8, 8, 8)))


@pytest.mark.parametrize("cutoff", [-1, 8, 9])
def test_band_rejects_a_cutoff_outside_the_negation_closed_band(cutoff):
    # at 8 the band would hold the Nyquist plane, at 9 its two blocks would overlap
    with pytest.raises(ld.ParameterError) as err:
        spectral.Band(ld.Grid(16), cutoff)
    assert err.value.parameter == "cutoff"


def test_band_pad_truncate_roundtrip(grid8):
    rng = np.random.default_rng(0)
    full = rng.standard_normal((3, 8, 8, 8)) + 1j * rng.standard_normal((3, 8, 8, 8))
    band = spectral.Band(grid8, grid8.dealias_cutoff)
    # four kz >= 0 blocks, nine reflected kz < 0 ones built once with the band
    assert (len(spectral._blocks(band.side, 8, band.cutoff)), len(band._mirror_pairs)) == (4, 9)
    compact = band.restrict(full)
    assert compact.shape == (3, 5, 5, 3)
    padded = band.pad(compact)
    # the kz >= 0 half is copied, the kz < 0 half is its conjugate reflection
    assert np.array_equal(padded, hermitian(full * band_mask(grid8)))
    assert np.array_equal(band.restrict(padded), compact)
    # pad writes only inside the band
    into = np.full_like(full, 7.0)
    band.pad(compact, into)
    assert np.array_equal(into[:, band_mask(grid8)], padded[:, band_mask(grid8)])
    assert np.all(into[:, ~band_mask(grid8)] == 7.0)


def test_a_field_on_the_band_agrees_with_its_padding(grid16, rand16):
    band = spectral.Band(grid16, grid16.dealias_cutoff)
    on_band = ld.SpectralField(grid16, band.restrict(rand16.coeffs), 0.5, band)
    full = on_band.padded()
    assert full.band is None and full.t == 0.5 and full.padded() is full
    assert np.array_equal(full.coeffs, hermitian(rand16.coeffs * band_mask(grid16)))
    spec = ld.FilterSpec(delta=0.5, order=3)
    # mode-by-mode operators keep the layout and the values
    for op in (ld.leray_project, lambda f: ld.apply_hn(f, spec), lambda f: ld.van_cittert(f, spec)):
        got = op(on_band)
        assert got.band is band
        assert np.array_equal(got.padded().coeffs, op(full).coeffs)
    assert np.array_equal(ld.to_physical(on_band), ld.to_physical(full))
    for s in (0, 1, 2, 1.5):
        assert ld.hs_norm(on_band, s) == pytest.approx(ld.hs_norm(full, s), rel=1e-14)
    assert ld.symmetry_defect(on_band) == ld.symmetry_defect(full)
    # restrict: a fresh array from either layout, on the same band or another
    same = band.restrict(on_band.coeffs)
    assert np.array_equal(same, on_band.coeffs) and not np.shares_memory(same, on_band.coeffs)
    wider = spectral.Band(grid16, 7)
    assert np.array_equal(wider.restrict(on_band.coeffs), wider.restrict(full.coeffs))
    with pytest.raises(ValueError, match="shape"):
        ld.SpectralField(grid16, rand16.coeffs, band=band)
    with pytest.raises(ValueError, match="band of Grid"):
        ld.SpectralField(ld.Grid(8), on_band.coeffs, band=band)


@pytest.mark.parametrize("n, cutoff", [(8, 0), (8, 2), (16, 5), (16, 7), (32, 10)])
def test_band_pad_of_truncate_is_the_identity_on_a_hermitian_array(n, cutoff):
    grid = ld.Grid(n)
    band = spectral.Band(grid, cutoff)
    rng = np.random.default_rng(n + cutoff)
    y = (rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n))) * (k_linf(grid) <= cutoff)
    # held inside the band, and exactly Hermitian: a + conj(b) and b + conj(a) are conjugates bit for bit
    x = 0.5 * (y + spectral.reflected_conjugate(y))
    assert np.array_equal(x, spectral.reflected_conjugate(x))
    # the kz >= 0 half loses nothing of it
    half = band.restrict(x)
    assert half.shape == (3, 2 * cutoff + 1, 2 * cutoff + 1, cutoff + 1)
    assert np.array_equal(band.pad(half), x)


@pytest.mark.parametrize("make", [ld.taylor_green, ld.abc_flow, lambda g: ld.single_mode(g, (2, -1, 1))],
                         ids=["taylor_green", "abc_flow", "single_mode"])
def test_restrict_crosses_grids_exactly(grid8, grid16, make):
    """A band's layout depends on its cutoff alone and coefficients are
    normalized independently of n, so an analytic field built on 8^3 and on
    16^3 restricts to the same band coefficients, bit for bit, in both
    directions and from the full grid or a band."""
    coarse, fine = make(grid8), make(grid16)
    on_band = {f.grid.n: spectral.integration_band(f.grid).restrict(f.coeffs) for f in (coarse, fine)}
    for target in (spectral.integration_band(grid8), spectral.integration_band(grid16)):
        expected = on_band[target.grid.n]
        for source in (coarse.coeffs, fine.coeffs, on_band[8], on_band[16]):
            assert np.array_equal(target.restrict(source), expected)


def test_restrict_twice_is_one_restriction_and_widening_is_undone(grid8, grid16, rand16):
    middle, narrow = spectral.Band(grid16, 3), spectral.integration_band(grid8)
    once = narrow.restrict(rand16.coeffs)
    assert np.array_equal(narrow.restrict(middle.restrict(rand16.coeffs)), once)
    # widening into a wider band of another grid zero-fills what the source lacks
    wide = spectral.integration_band(grid16)
    widened = wide.restrict(once, out=np.full(wide.shape, np.nan, dtype=complex))
    kept = narrow.cutoff
    inside = (np.abs(wide.kx) <= kept) & (np.abs(wide.ky) <= kept) & (wide.kz <= kept)
    assert np.all(widened[:, ~inside] == 0) and not np.isnan(widened).any()
    assert np.array_equal(narrow.restrict(widened), once)
    assert np.array_equal(narrow.restrict(narrow.pad(once)), once)


@pytest.mark.parametrize("shape", [(3, 5, 5, 4), (3, 8, 8, 7), (3, 5, 7, 3), (3, 7, 7, 7), (3, 0, 0, 0), (5, 5)])
def test_restrict_rejects_a_malformed_layout(grid8, shape):
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))}"):
        spectral.integration_band(grid8).restrict(np.zeros(shape, dtype=complex))


def _non_solenoidal_band_field(grid, band, seed, t=0.0):
    """A real, mean-free, divergent field held on the band."""
    rng = np.random.default_rng(seed)
    f = ld.from_physical(grid, rng.standard_normal((3,) + (grid.n,) * 3))
    return ld.SpectralField(grid, band.restrict(f.coeffs), t, band)


def test_a_band_field_and_its_padding_give_the_same_reductions(grid16):
    band = spectral.integration_band(grid16)
    f = _non_solenoidal_band_field(grid16, band, seed=31, t=0.25)
    g = _non_solenoidal_band_field(grid16, band, seed=32, t=0.25)
    full = f.padded()
    # the band field holds the kz >= 0 half, so its sums must weigh kz > 0 twice
    assert f.coeffs.shape == (3, band.side, band.side, band.cutoff + 1)

    def agree(a, b):
        assert a == pytest.approx(b, rel=1e-14, abs=0)

    for s in (0, 1, 1.5, -1):
        agree(ld.hs_norm(f, s), ld.hs_norm(full, s))
    agree(ld.solenoidal_defect(f), ld.solenoidal_defect(full))
    assert ld.solenoidal_defect(full) > 0.1  # a divergent field, so the defect is no rounding noise
    assert ld.symmetry_defect(f) == ld.symmetry_defect(full)
    on_band = ld.diagnostics.energy_record(f, 0.1, g)
    padded = ld.diagnostics.energy_record(full, 0.1, g.padded())
    assert padded.input_power != 0.0
    for name in ("energy", "h1_seminorm_sq", "dissipation", "input_power"):
        agree(getattr(on_band, name), getattr(padded, name))

    def trajectory(*snapshots):
        return SimpleNamespace(snapshots=list(snapshots))

    later = [_non_solenoidal_band_field(grid16, band, seed=33 + i, t=0.5 * (i % 2)) for i in range(4)]
    on_band = ld.model_error(trajectory(*later[:2]), trajectory(*later[2:]))
    padded = ld.model_error(trajectory(*(s.padded() for s in later[:2])),
                            trajectory(*(s.padded() for s in later[2:])))
    for name in ("l2_final", "l2l2", "h1_timeavg"):
        agree(getattr(on_band, name), getattr(padded, name))


@pytest.mark.parametrize("n", [8, 16, 32])
@pytest.mark.parametrize("on_band", [False, True], ids=["grid", "band"])
def test_forward_transform_of_a_view_of_its_own_work(n, on_band):
    """Samples that share memory with the buffer the forward transform writes
    are rejected: the real-part view the inverse transform leaves in work,
    and work itself, whose transform would overwrite it while reading it."""
    grid = ld.Grid(n)
    band = spectral.integration_band(grid) if on_band else None
    f = ld.random_solenoidal(grid, seed=n)
    c = band.restrict(f.coeffs) if on_band else f.coeffs
    work = np.empty_like(f.coeffs)
    out = np.empty_like(c) if on_band else work  # without a band the transform writes into out
    samples = spectral.inverse_transform(c, band, work=work)
    assert np.shares_memory(samples, work)
    expected = spectral.forward_transform(samples.copy(), band, out=np.empty_like(c),
                                          work=np.empty_like(work))
    before = work.copy()
    for shared in (samples, work):
        with pytest.raises(ValueError, match="share memory"):
            spectral.forward_transform(shared, band, out=out, work=work)
    assert np.array_equal(work, before)  # rejected before anything is written
    assert np.array_equal(spectral.forward_transform(samples.copy(), band, out=out, work=work), expected)


def test_mode_index_roundtrip(grid16):
    g = grid16
    assert g.mode_index((1, 0, 0)) == (1, 0, 0)
    assert g.mode_index((-1, 2, -3)) == (15, 2, 13)
    # index must address the mode whose wavenumber matches
    i, j, k = g.mode_index((-5, 7, -2))
    assert (g.kx[i, 0, 0], g.ky[0, j, 0], g.kz[0, 0, k]) == (-5.0, 7.0, -2.0)


def test_grid_equality():
    assert ld.Grid(8) == ld.Grid(8)
    assert ld.Grid(8) != ld.Grid(16)


def test_field_shape_validation(grid8):
    with pytest.raises(ValueError):
        ld.SpectralField(grid8, np.zeros((3, 4, 4, 4), dtype=np.complex128))


def test_physical_roundtrip(grid16, rand16):
    u = ld.to_physical(rand16)
    back = ld.from_physical(grid16, u)
    np.testing.assert_allclose(back.coeffs, rand16.coeffs, rtol=0, atol=1e-15)


def test_transforms_are_the_unnormalized_numpy_fft_scaled_by_n_cubed(grid16, rand16):
    n = grid16.n
    u = ld.to_physical(rand16)
    assert np.array_equal(u, np.fft.ifftn(rand16.coeffs, axes=(1, 2, 3)).real * n**3)
    back = ld.from_physical(grid16, u).coeffs
    assert np.array_equal(back, np.fft.fftn(u, axes=(1, 2, 3)) / n**3)
    # out= and work= choose where results go, never what they are
    out, work = np.empty_like(u), np.empty_like(rand16.coeffs)
    assert spectral.inverse_transform(rand16.coeffs, out=out, work=work) is out
    assert np.array_equal(out, u)
    assert spectral.forward_transform(u, out=work) is work
    assert np.array_equal(work, back)


def test_the_transform_pair_takes_band_coefficients(grid16, rand16):
    band = spectral.Band(grid16, grid16.dealias_cutoff)
    on_band = band.restrict(rand16.coeffs)
    full = band.pad(on_band)
    work = np.full_like(full, np.nan)  # whatever work holds outside the band is overwritten
    samples = spectral.inverse_transform(on_band, band, work=work)
    assert np.shares_memory(samples, work)
    assert np.array_equal(samples, spectral.inverse_transform(full))
    samples, out = samples.copy(), np.empty_like(on_band)
    assert spectral.forward_transform(samples, band, out=out, work=work) is out
    assert np.array_equal(out, band.restrict(spectral.forward_transform(samples)))


def test_to_physical_of_a_band_field_holds_one_and_a_half_fields(grid16, rand16):
    """One complex work buffer and the real result; no padded copy."""
    band = spectral.Band(grid16, grid16.dealias_cutoff)
    on_band = ld.SpectralField(grid16, band.restrict(rand16.coeffs), band=band)
    tracemalloc.start()
    try:
        ld.to_physical(on_band)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * rand16.coeffs.nbytes


def test_from_physical_rejects_a_wrong_shape(grid8):
    with pytest.raises(ValueError, match=r"samples must have shape \(3, 8, 8, 8\), got \(8, 8, 8\)"):
        ld.from_physical(grid8, np.zeros((8, 8, 8)))


def test_solenoidal_defect_of_a_zero_field_is_zero(grid8):
    assert ld.solenoidal_defect(ld.SpectralField(grid8, np.zeros((3, 8, 8, 8), dtype=np.complex128))) == 0.0


def test_only_spectral_pads_or_truncates():
    """Guard: the band-to-grid boundary is spectral.py's; every other module
    goes through the transform pair, SpectralField.padded or Band.restrict,
    the one truncation."""
    callers = set()
    for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "pad"):
                callers.add(path.stem)
    assert callers == {"spectral"}


def test_only_the_transform_functions_call_numpy_fft():
    """numpy.fft is used by spectral.inverse_transform/forward_transform (and
    fftfreq by Grid) alone, so one module fixes the FFT convention."""
    uses = set()

    def visit(node, module, scope, parent):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Attribute) and node.attr == "fft":  # np.fft.<name> or np.fft
            uses.add((module, scope, parent.attr if isinstance(parent, ast.Attribute) else "fft"))
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "fft" in ast.unparse(node):
            uses.add((module, scope, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope, node)

    for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "<module>", None)
    assert uses == {
        ("spectral", "inverse_transform", "ifftn"),
        ("spectral", "forward_transform", "fftn"),
        ("spectral", "__init__", "fftfreq"),
    }


def test_only_the_integration_band_builds_a_band():
    """Guard: spectral.integration_band is the one place in the package that
    constructs the stepper's spectral.Band, so the stepper, consistency_report,
    model_error (on the coarser grid's band) and deconv_unit_cost, which times
    van Cittert on the stepper's layout, cannot drift apart; random_solenoidal
    builds the band of its own cutoff."""
    callers = set()

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id == "Band")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "Band")):
            callers.add((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(spectral.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, "<module>")
    assert callers == {("spectral", "integration_band"), ("fields", "random_solenoidal")}


def test_import_leaves_scipy_unloaded():
    """import scipy.fft alone takes about as long as a 32^3 run's set-up, so
    an optional scipy backend must be imported lazily, never by the package."""
    code = "import sys, leraydec; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": str(Path(ld.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize("n", [2256, 1000000000])
def test_grid_size_ceiling_rejects_before_allocating(n):
    tracemalloc.start()
    try:
        with pytest.raises(ld.ParameterError, match="transform workspace") as err:
            ld.Grid(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.parameter == "n"
    assert peak < 2**16
    # the rule, from n alone: 96 n^3 bytes of run workspace; 2254 is the largest size it passes
    assert 96 * 2254**3 <= spectral.MAX_WORKSPACE_BYTES < 96 * 2256**3


def test_parseval(grid16, rand16):
    # (2 pi)^-3 int |w|^2 dx equals the coefficient sum of squares
    u = ld.to_physical(rand16)
    physical = (u**2).sum() / grid16.n**3
    assert physical == pytest.approx(ld.hs_norm(rand16, 0) ** 2, rel=1e-13)
    assert physical == pytest.approx(2.0 * energy(rand16), rel=1e-13)


def test_hs_norm_fast_paths_match_general(rand16):
    for s in (0, 1, 2):
        general = 0.0
        g = rand16.grid
        w2 = (rand16.coeffs.real**2 + rand16.coeffs.imag**2).sum(axis=0)
        weights = np.where(g.k_sq > 0, g.k_mag ** (2.0 * s), 0.0)
        general = np.sqrt((w2 * weights).sum())
        assert ld.hs_norm(rand16, s) == pytest.approx(general, rel=1e-13)


def test_hs_norm_excludes_mean(grid16, rand16):
    shifted = rand16.copy()
    shifted.coeffs[:, 0, 0, 0] = 7.0
    assert ld.hs_norm(shifted, 0) == pytest.approx(ld.hs_norm(rand16, 0), rel=1e-13)


def test_hs_norm_single_mode(grid16):
    f = ld.single_mode(grid16, (2, 1, 0), amplitude=3.0)
    # amplitude a cos(k.x) has ||.||_0 = a / sqrt(2) in the normalized norm
    assert ld.hs_norm(f, 0) == pytest.approx(3.0 / np.sqrt(2.0), rel=1e-13)
    assert ld.hs_norm(f, 1) == pytest.approx(np.sqrt(5.0) * 3.0 / np.sqrt(2.0), rel=1e-13)


def test_inner_matches_physical(grid16):
    # the coefficient pairing the orthogonality tests use is the L2 one
    a = ld.random_solenoidal(grid16, seed=1)
    b = ld.random_solenoidal(grid16, seed=2)
    ua, ub = ld.to_physical(a), ld.to_physical(b)
    physical = (ua * ub).sum() / grid16.n**3
    assert inner(a, b) == pytest.approx(physical, rel=0, abs=1e-13)


def test_leray_projection(grid16):
    rng = np.random.default_rng(5)
    raw = ld.from_physical(grid16, rng.standard_normal((3, 16, 16, 16)))
    p = ld.leray_project(raw)
    assert ld.solenoidal_defect(p) < 1e-13
    # idempotent
    pp = ld.leray_project(p)
    np.testing.assert_allclose(pp.coeffs, p.coeffs, rtol=0, atol=1e-15)
    # removes nothing from an already solenoidal field
    assert ld.hs_norm(p, 0) <= ld.hs_norm(raw, 0) + 1e-15


def test_leray_projection_orthogonality(grid16):
    rng = np.random.default_rng(6)
    raw = ld.from_physical(grid16, rng.standard_normal((3, 16, 16, 16)))
    p = ld.leray_project(raw)
    residual = raw.with_coeffs(raw.coeffs - p.coeffs)
    assert abs(inner(p, residual)) < 1e-13


def test_symmetry_defect_real_field(rand16):
    assert ld.symmetry_defect(rand16) < 1e-15


def test_validate_field_catches_violations(grid16, rand16):
    ld.validate_field(rand16, solenoidal=True)

    bad = rand16.copy()
    bad.coeffs[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="k = 0"):
        ld.validate_field(bad)

    asym = rand16.copy()
    asym.coeffs[0, 1, 2, 3] += 0.5
    with pytest.raises(ValueError, match="symmetry"):
        ld.validate_field(asym)

    nan = rand16.copy()
    nan.coeffs[1, 1, 1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ld.validate_field(nan)

    rng = np.random.default_rng(9)
    noise = rng.standard_normal((3, 16, 16, 16))
    noise -= noise.mean(axis=(1, 2, 3), keepdims=True)
    unproj = ld.from_physical(rand16.grid, noise)
    with pytest.raises(ValueError, match="solenoidal"):
        ld.validate_field(unproj, solenoidal=True)
