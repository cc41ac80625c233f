"""INI config parsing: schema, defaults, overrides, canonical echo."""

import re

import pytest

import leraydec as ld
from leraydec import config

MINIMAL = """
[grid]
n = 16

[fluid]
nu = 0.1

[time]
dt = 0.01
t_end = 0.1
"""

LERAY = MINIMAL + """
[model]
kind = leray_deconv
delta = 0.5
order = 2
"""


def test_minimal_config_fills_defaults():
    rc = config.parse_config_text(MINIMAL)
    cfg = rc.solver
    assert cfg.grid.n == 16
    assert cfg.model.family == "nse"
    assert cfg.filter is None
    assert cfg.nu == 0.1
    assert cfg.dt == 0.01 and cfg.t_end == 0.1
    assert cfg.ic.kind == "taylor_green"
    assert cfg.forcing.kind == "zero"
    assert cfg.dealias is True
    assert cfg.snapshot_every == 10
    assert rc.out_dir == "out"
    assert rc.formats == ("csv", "snapshot")


def test_leray_config_builds_filter():
    cfg = config.parse_config_text(LERAY).solver
    assert cfg.model.family == "leray_deconv"
    assert cfg.model.order == 2
    assert cfg.filter == ld.FilterSpec(delta=0.5, order=2)


def test_unknown_section_rejected():
    with pytest.raises(config.ConfigError, match=r"unknown section \[turbo\]"):
        config.parse_config_text(MINIMAL + "\n[turbo]\nboost = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(config.ConfigError, match="unknown key grid.m"):
        config.parse_config_text("[grid]\nn = 16\nm = 3\n")


def test_missing_required_key_named():
    with pytest.raises(config.ConfigError, match="missing required key fluid.nu"):
        config.parse_config_text("[grid]\nn = 16\n\n[time]\ndt = 0.01\nt_end = 0.1\n")


def test_invalid_value_names_key():
    with pytest.raises(config.ConfigError, match="invalid value for grid.n"):
        config.parse_config_text(MINIMAL.replace("n = 16", "n = sixteen"))
    with pytest.raises(config.ConfigError, match="invalid value for grid.dealias"):
        config.parse_config_text(MINIMAL, overrides=["grid.dealias=maybe"])


def test_boolean_spellings():
    for raw, want in [("true", True), ("ON", True), ("1", True),
                      ("false", False), ("off", False), ("No", False)]:
        rc = config.parse_config_text(MINIMAL, overrides=[f"model.filter_ic={raw}"])
        assert rc.solver.filter_ic is want


def test_an_old_effective_cfg_parses_as_one_without_the_retired_keys():
    # guard: effective.cfg files written while the keys were options carry
    # them; they must still re-run, and echo them as before
    old = LERAY.replace("n = 16", "n = 16\ndealias = yes") + "conv_form = advective\n"
    with_keys, without = config.parse_config_text(old), config.parse_config_text(LERAY)
    assert with_keys.solver == without.solver
    assert config.render_effective(with_keys.effective) == config.render_effective(without.effective)
    assert "dealias = true" in config.render_effective(without.effective)


def test_semantic_validation_messages():
    with pytest.raises(config.ConfigError,
                       match=re.escape("invalid value for fluid.nu: viscosity must be >= 0, got -1.0")):
        config.parse_config_text(MINIMAL, overrides=["fluid.nu=-1"])
    with pytest.raises(config.ConfigError,
                       match=re.escape("invalid value for time.dt: dt must be positive, got 0.0")):
        config.parse_config_text(MINIMAL, overrides=["time.dt=0"])
    with pytest.raises(config.ConfigError, match="model.delta"):
        config.parse_config_text(MINIMAL, overrides=["model.kind=leray_deconv"])
    with pytest.raises(config.ConfigError,
                       match=re.escape("invalid value for model.delta: filter radius must be positive, got -0.5")):
        config.parse_config_text(
            MINIMAL, overrides=["model.kind=leray_deconv", "model.delta=-0.5"]
        )
    with pytest.raises(config.ConfigError, match="expected nse or leray_deconv"):
        config.parse_config_text(MINIMAL, overrides=["model.kind=euler"])
    with pytest.raises(config.ConfigError, match="integer multiple"):
        config.parse_config_text(MINIMAL, overrides=["time.t_end=0.095"])


def test_nse_ignores_delta():
    rc = config.parse_config_text(MINIMAL, overrides=["model.delta=0.5"])
    assert rc.solver.filter is None


def test_formats_validated():
    with pytest.raises(config.ConfigError, match="unknown format"):
        config.parse_config_text(MINIMAL, overrides=["output.formats=csv,hdf5"])
    rc = config.parse_config_text(MINIMAL, overrides=["output.formats=csv"])
    assert rc.formats == ("csv",)


def test_override_forms_rejected():
    with pytest.raises(config.ConfigError, match="not of the form"):
        config.parse_config_text(MINIMAL, overrides=["grid.n"])
    with pytest.raises(config.ConfigError, match="not of the form"):
        config.parse_config_text(MINIMAL, overrides=["n=16"])
    with pytest.raises(config.ConfigError, match="unknown key bogus.key"):
        config.parse_config_text(MINIMAL, overrides=["bogus.key=1"])


def test_overrides_change_solver():
    rc = config.parse_config_text(MINIMAL, overrides=["fluid.nu=0.25", "grid.n=8"])
    assert rc.solver.nu == 0.25
    assert rc.solver.grid.n == 8


def test_ic_and_forcing_sections():
    text = MINIMAL + """
[ic]
kind = single_mode
mode = 0, 2, 0
amplitude = 0.5

[forcing]
kind = single_mode
mode = 1, 0, 0
amplitude = 0.2
"""
    cfg = config.parse_config_text(text).solver
    assert cfg.ic.kind == "single_mode"
    assert cfg.ic.mode == (0, 2, 0)
    assert cfg.ic.amplitude == 0.5
    assert cfg.forcing.amplitude == 0.2
    with pytest.raises(config.ConfigError,
                       match="invalid value for ic.kind: unknown field kind 'vortex_sheet', expected one of"):
        config.parse_config_text(MINIMAL, overrides=["ic.kind=vortex_sheet"])


_BAD_FIELD_PARAMETERS = [
    (["kind=single_mode", "mode=0,0,0"], "mode", "nonzero integer triple"),
    (["kind=single_mode", "mode=0,8,0"], "mode", "does not fit"),
    (["kind=manufactured", "expr=bogus"], "expr", "unknown manufactured field 'bogus'"),
    (["kind=random_solenoidal", "band=0"], "band", "band must be >= 1"),
]


@pytest.mark.parametrize("section", ["ic", "forcing"])
@pytest.mark.parametrize("settings, key, message", _BAD_FIELD_PARAMETERS)
def test_field_parameters_checked_against_the_grid(section, settings, key, message):
    overrides = [f"{section}.{item}" for item in settings]
    with pytest.raises(config.ConfigError, match=f"invalid value for {section}.{key}: .*{message}"):
        config.parse_config_text(MINIMAL, overrides=overrides)


def test_field_mode_checked_against_the_configured_grid():
    mode = ["ic.kind=single_mode", "ic.mode=0,8,0"]
    with pytest.raises(config.ConfigError, match="ic.mode"):
        config.parse_config_text(MINIMAL, overrides=mode)  # n = 16 keeps |k| <= 7
    assert config.parse_config_text(MINIMAL, overrides=mode + ["grid.n=18"]).solver.ic.mode == (0, 8, 0)


def test_malformed_ini_rejected():
    with pytest.raises(config.ConfigError, match="cannot parse"):
        config.parse_config_text("grid]\nn = 16\n")


def test_render_effective_is_stable_and_reparseable():
    rc = config.parse_config_text(LERAY)
    text = config.render_effective(rc.effective)
    rc2 = config.parse_config_text(text)
    assert rc2.solver == rc.solver
    assert config.render_effective(rc2.effective) == text
    assert rc2.config_hash == rc.config_hash


def test_render_effective_mentions_defaults():
    text = config.render_effective(config.parse_config_text(MINIMAL).effective)
    assert "snapshot_every = 10" in text
    assert "kind = taylor_green" in text
    assert "[study]" not in text  # sweeps are set by the study commands' flags alone


def test_config_hash_tracks_content():
    a = config.parse_config_text(MINIMAL)
    b = config.parse_config_text(MINIMAL, overrides=["fluid.nu=0.2"])
    assert a.config_hash != b.config_hash
    assert len(a.config_hash) == 64


@pytest.mark.parametrize("key", ["kind", "grid_n", "k_max", "k_points", "deltas", "orders", "delta",
                                 "fit_window", "floor"])
def test_unread_study_keys_rejected(key):
    # a sweep is set by the study command's flags alone, so [study] is an
    # unknown section like any other, in the file and as an override
    with pytest.raises(config.ConfigError, match=re.escape("unknown section [study]")):
        config.parse_config_text(MINIMAL + f"\n[study]\n{key} = 1\n")
    with pytest.raises(config.ConfigError, match=f"unknown key study.{key}"):
        config.parse_config_text(MINIMAL, overrides=[f"study.{key}=1"])


@pytest.mark.parametrize("key, value", [
    ("grid.n", "7"),
    ("fluid.nu", "nan"),
    ("time.t_end", "0.105"),
    ("time.t_end", "0.005"),
    ("time.t_end", "inf"),
    ("time.snapshot_every", "0"),
    ("model.conv_form", "rot"),
    ("model.conv_form", "divergence"),
    ("time.t_end", "1e308"),
    ("model.order", "-1"),
    ("grid.dealias", "false"),
    ("ic.mode", "1,0,99999999999999999999"),
])
def test_rejected_values_name_their_key(key, value):
    # the settings a key is read under
    needs = {"model.order": ["model.kind=leray_deconv", "model.delta=0.5"], "ic.mode": ["ic.kind=single_mode"]}
    overrides = [f"{key}={value}", *needs.get(key, ())]
    with pytest.raises(config.ConfigError, match=re.escape(key)):
        config.parse_config_text(MINIMAL, overrides=overrides)


@pytest.mark.parametrize("settings, key, reason", [
    (["model.delta=nan"], "model.delta", "filter radius must be positive, got nan"),
    (["model.delta=inf"], "model.delta", "delta must be finite, got inf"),
    (["model.max_order=-1"], "model.max_order", "max_order must be >= 0, got -1"),
    (["fluid.nu=inf"], "fluid.nu", "nu must be finite, got inf"),
    (["time.dt=inf"], "time.dt", "dt must be finite, got inf"),
    (["time.t_end=inf"], "time.t_end", "t_end must be finite, got inf"),
    (["ic.amplitude=nan"], "ic.amplitude", "amplitude must be finite, got nan"),
    (["forcing.kind=single_mode", "forcing.amplitude=inf"], "forcing.amplitude",
     "amplitude must be finite, got inf"),
    (["ic.kind=random_solenoidal", "ic.slope=nan"], "ic.slope", "slope must be finite, got nan"),
    (["ic.kind=random_solenoidal", "ic.seed=-1"], "ic.seed", "seed must be >= 0, got -1"),
    (["grid.dealias=off"], "grid.dealias", "dealiasing by the two-thirds rule is always on, got 'off'"),
])
def test_rejected_values_report_key_and_reason(settings, key, reason):
    # a value the run cannot use is reported under its own key, in one format
    leray = ["model.kind=leray_deconv", "model.delta=0.5"]
    with pytest.raises(config.ConfigError) as info:
        config.parse_config_text(MINIMAL, overrides=leray + settings)
    assert str(info.value) == f"invalid value for {key}: {reason}"
