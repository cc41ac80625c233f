import ast
from pathlib import Path

import numpy as np
import pytest

import leraydec as ld
from leraydec import fields

from conftest import curl, energy, k_linf, shell_energies


@pytest.mark.parametrize(
    "spec",
    [
        ld.FieldSpec(kind="taylor_green"),
        ld.FieldSpec(kind="single_mode", mode=(2, -1, 3)),
        ld.FieldSpec(kind="random_solenoidal", seed=4),
        ld.FieldSpec(kind="abc_flow"),
        ld.FieldSpec(kind="single_mode", mode=(1, 0, 0)),  # the plane shear u = (0, cos x, 0)
    ],
)
def test_constructors_satisfy_invariants(grid16, spec):
    f = spec.evaluate(grid16)
    ld.validate_field(f, solenoidal=True)
    # nothing beyond the negation-closed band (no Nyquist planes)
    assert not np.any(f.coeffs[:, k_linf(grid16) > grid16.n // 2 - 1])


def test_field_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown field kind"):
        ld.FieldSpec(kind="vortex_sheet")


def test_zero_field(grid8):
    f = ld.FieldSpec(kind="zero").evaluate(grid8)
    assert not np.any(f.coeffs)


def test_taylor_green_energy(grid16):
    # 2 sin/cos products of unit amplitude: energy (1/2)(2 pi)^-3 int |u|^2 = 1/8
    f = ld.taylor_green(grid16)
    assert energy(f) == pytest.approx(0.125, rel=1e-13)
    # all modes on the |k|^2 = 3 shell
    on_shell = f.grid.k_sq == 3.0
    off = f.coeffs.copy()
    off[:, on_shell] = 0.0
    assert np.abs(off).max() < 1e-15


@pytest.mark.parametrize("build, count, magnitude", [(ld.taylor_green, 16, 1.3 / 8), (ld.abc_flow, 12, 1.3 / 2)],
                         ids=["taylor_green", "abc_flow"])
def test_analytic_coefficients_are_exact(grid16, build, count, magnitude):
    # Taylor-Green: -+i a/8 on u_0 and +-i a/8 on u_1 at the corners (+-1, +-1, +-1);
    # ABC: -+i a/2 and a/2 on the unit axes; no collocation roundoff anywhere
    c = build(grid16, amplitude=1.3).coeffs
    assert np.count_nonzero(c) == count
    assert np.all(np.abs(c[c != 0]) == magnitude)


def test_only_the_random_field_transforms_samples():
    """Guard: in fields.py only random_solenoidal calls spectral.from_physical;
    the analytic constructors write their coefficients."""
    callers = set()

    def visit(node, scope):
        if isinstance(node, ast.FunctionDef):
            scope = node.name
        if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id == "from_physical")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "from_physical")):
            callers.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(Path(fields.__file__).read_text()), "<module>")
    assert callers == {"random_solenoidal"}


def test_taylor_green_amplitude_scaling(grid16):
    a = ld.taylor_green(grid16, amplitude=2.0)
    b = ld.taylor_green(grid16)
    np.testing.assert_allclose(a.coeffs, 2.0 * b.coeffs, rtol=0, atol=1e-15)


def test_single_mode_exact_content(grid16):
    f = ld.single_mode(grid16, (0, 3, 0), amplitude=2.0)
    idx = grid16.mode_index((0, 3, 0))
    # polarization axis 0 (smallest |k| component on ties), amplitude split over +-k
    assert f.coeffs[(0, *idx)] == pytest.approx(1.0)
    assert np.count_nonzero(f.coeffs) == 2
    u = ld.to_physical(f)
    y = (2 * np.pi * np.arange(16) / 16).reshape(1, 16, 1)
    np.testing.assert_allclose(u[0], np.broadcast_to(2.0 * np.cos(3 * y), u[0].shape), rtol=0, atol=1e-13)


def test_single_mode_perpendicular_polarization(grid16):
    for mode in [(1, 0, 0), (0, 2, 0), (1, 1, 1), (2, -1, 3), (-4, 5, -6)]:
        f = ld.single_mode(grid16, mode)
        ld.validate_field(f, solenoidal=True)
        assert ld.hs_norm(f, 0) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


def test_single_mode_validation(grid16):
    with pytest.raises(ValueError, match="nonzero"):
        ld.single_mode(grid16, (0, 0, 0))
    with pytest.raises(ValueError, match="band"):
        ld.single_mode(grid16, (8, 0, 0))


def test_random_solenoidal_determinism(grid16):
    a = ld.random_solenoidal(grid16, seed=42)
    b = ld.random_solenoidal(grid16, seed=42)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    c = ld.random_solenoidal(grid16, seed=43)
    assert np.abs(a.coeffs - c.coeffs).max() > 1e-6


def test_random_solenoidal_normalization_and_band(grid16):
    f = ld.random_solenoidal(grid16, seed=0, amplitude=2.5, band=3)
    assert ld.hs_norm(f, 0) == pytest.approx(2.5, rel=1e-12)
    assert np.all(f.coeffs[:, k_linf(grid16) > 3] == 0)


def test_random_solenoidal_spectrum_slope(grid32):
    # shallow vs steep shaping must order the high-shell energy fractions
    flat = ld.random_solenoidal(grid32, seed=1, slope=-1.0)
    steep = ld.random_solenoidal(grid32, seed=1, slope=-4.0)
    sf, ss = shell_energies(flat), shell_energies(steep)
    hi = slice(6, 10)
    assert sf[hi].sum() / sf.sum() > ss[hi].sum() / ss.sum()


@pytest.mark.parametrize("slope, finite", [(700.0, False), (1000.0, False), (500.0, True), (-5.0 / 3.0, True)])
def test_random_solenoidal_slope_bound(grid8, slope, finite):
    # at 700 the norm overflowed and scaled the field to zero; at 1000 the
    # shaping itself overflowed into a non-finite field
    spec = ld.FieldSpec(kind="random_solenoidal", slope=slope)
    if finite:
        spec.check(grid8)
        f = spec.evaluate(grid8)
        ld.validate_field(f, solenoidal=True)
        assert ld.hs_norm(f, 0) == pytest.approx(1.0, rel=1e-12)
        return
    for check in (spec.check, spec.evaluate):
        with pytest.raises(ld.ParameterError) as err:
            check(grid8)
        assert err.value.parameter == "slope"


def test_abc_flow_is_beltrami(grid16):
    f = ld.abc_flow(grid16, amplitude=1.3)
    np.testing.assert_allclose(curl(f), f.coeffs, rtol=0, atol=1e-13)


def test_each_analytic_kind_is_its_constructor(grid16):
    for kind, build in (("taylor_green", ld.taylor_green), ("abc_flow", ld.abc_flow)):
        np.testing.assert_array_equal(ld.FieldSpec(kind=kind, amplitude=0.7).evaluate(grid16).coeffs,
                                      build(grid16, 0.7).coeffs)
    with pytest.raises(ld.ParameterError, match="unknown field kind 'manufactured'") as err:
        ld.FieldSpec(kind="manufactured")
    assert err.value.parameter == "kind"
