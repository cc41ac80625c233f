"""Sectioned key-value run configuration.

The on-disk format is INI-shaped: named sections of key = value pairs.
Unknown sections or keys are rejected, every key is typed, and defaults are
part of the schema below.  The effective configuration (defaults filled in,
overrides applied) can be rendered back to canonical text; its SHA-256 is
the config hash recorded in run manifests.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
from dataclasses import dataclass

from .fields import FieldSpec
from .filtering import MAX_ORDER, FilterSpec
from .solver import ModelKind, SolverConfig
from .spectral import Grid, ParameterError

REQUIRED = object()


class ConfigError(ValueError):
    """Configuration rejected; the message names the offending key."""


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_mode(raw: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated integers, got {raw!r}")
    return tuple(int(p) for p in parts)


def _retired(parse, value, reason: str) -> tuple:
    """Schema entry of a key kept only so that every effective.cfg written so
    far parses: it accepts a spelling `parse` reads as `value`, nothing else."""
    def convert(raw: str):
        with contextlib.suppress(ValueError):
            if parse(raw) == value:
                return value
        raise ValueError(f"{reason}, got {raw!r}")
    return convert, value


_FIELD_KEYS = {
    "kind": (str, "zero"),
    "amplitude": (float, 1.0),
    "mode": (_parse_mode, (1, 0, 0)),
    "slope": (float, -5.0 / 3.0),
    "seed": (int, 0),
    "band": (int, None),
    "expr": _retired(str, "", "expr is retired: ABC flow is kind = abc_flow, and the plane shear is "
                     "kind = single_mode with mode = 1,0,0"),
}

SCHEMA: dict = {
    "grid": {
        "n": (int, REQUIRED),
        "dealias": _retired(_parse_bool, True, "dealiasing by the two-thirds rule is always on"),
    },
    "model": {
        "kind": (str, "nse"),
        "delta": (float, None),
        "order": (int, 0),
        "max_order": _retired(int, MAX_ORDER, f"max_order must be {MAX_ORDER}, the fixed cap on model.order"),
        "filter_forcing": (_parse_bool, True),
        "filter_ic": (_parse_bool, True),
        "conv_form": _retired(str, "advective", "the only convective form is 'advective'"),
    },
    "fluid": {
        "nu": (float, REQUIRED),
    },
    "time": {
        "dt": (float, REQUIRED),
        "t_end": (float, REQUIRED),
        "snapshot_every": (int, 10),
    },
    "ic": dict(_FIELD_KEYS, kind=(str, "taylor_green")),
    "forcing": dict(_FIELD_KEYS),
    "output": {
        "dir": (str, "out"),
        "formats": (str, "csv,snapshot"),
    },
}


@dataclass
class RunConfig:
    """Everything a CLI invocation needs: solver setup plus output policy."""

    solver: SolverConfig
    out_dir: str
    formats: tuple
    effective: dict

    @property
    def config_hash(self) -> str:
        """sha256 of the effective configuration without `[output] dir`:
        the same run written to two directories has one hash.  effective.cfg
        still records the directory."""
        values = {**self.effective, "output": {**self.effective["output"], "dir": None}}
        return hashlib.sha256(render_effective(values).encode()).hexdigest()


def _read_parser(text: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse configuration: {exc}") from exc
    return parser


def apply_overrides(values: dict, overrides) -> None:
    """Apply `section.key=value` strings on top of parsed raw values."""
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        section, key = dotted.strip().split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown key {section}.{key}")
        values.setdefault(section, {})[key] = raw.strip()


def _typed_values(parser: configparser.ConfigParser, overrides=None) -> dict:
    raw: dict = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, value in parser.items(section):
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            raw.setdefault(section, {})[key] = value
    apply_overrides(raw, overrides)

    typed: dict = {}
    for section, keys in SCHEMA.items():
        typed[section] = {}
        for key, (convert, default) in keys.items():
            if key in raw.get(section, {}):
                try:
                    typed[section][key] = convert(raw[section][key])
                except (ValueError, TypeError, OverflowError) as exc:
                    raise ConfigError(f"invalid value for {section}.{key}: {exc}") from exc
            elif default is REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            else:
                typed[section][key] = default
    return typed


# The config key of each constructor argument a run is built from; FieldSpec's
# arguments are keys of the [ic] or [forcing] section they are read from.
_ARGUMENT_KEYS = {
    "n": "grid.n",
    "family": "model.kind", "delta": "model.delta", "order": "model.order",
    "nu": "fluid.nu",
    "dt": "time.dt", "t_end": "time.t_end", "snapshot_every": "time.snapshot_every",
}


def _built(build, *args, section: str | None = None, **kwargs):
    """build(*args, **kwargs), with a rejected argument reported against its config key."""
    try:
        return build(*args, **kwargs)
    except ParameterError as exc:
        key = f"{section}.{exc.parameter}" if section else _ARGUMENT_KEYS[exc.parameter]
        raise ConfigError(f"invalid value for {key}: {exc}") from exc


def _build_solver_config(v: dict) -> SolverConfig:
    m = v["model"]
    grid = _built(Grid, v["grid"]["n"])
    model = _built(ModelKind, m["kind"])
    filter_spec = None
    if model.is_regularized:
        if m["delta"] is None:
            raise ConfigError("missing required key model.delta (required when model.kind = leray_deconv)")
        model = _built(ModelKind.leray_deconvolution, m["order"])
        filter_spec = _built(FilterSpec, delta=m["delta"], order=m["order"])

    def field_spec(section: str) -> FieldSpec:
        keys = {key: value for key, value in v[section].items() if key != "expr"}  # expr is retired
        spec = _built(FieldSpec, section=section, **keys)
        _built(spec.check, grid, section=section)  # now, not once the run evaluates the field
        return spec

    return _built(
        SolverConfig,
        grid=grid,
        model=model,
        nu=v["fluid"]["nu"],
        dt=v["time"]["dt"],
        t_end=v["time"]["t_end"],
        filter=filter_spec,
        ic=field_spec("ic"),
        forcing=field_spec("forcing"),
        filter_forcing=m["filter_forcing"],
        filter_ic=m["filter_ic"],
        snapshot_every=v["time"]["snapshot_every"],
    )


def parse_config_text(text: str, overrides=None) -> RunConfig:
    values = _typed_values(_read_parser(text), overrides)
    solver_config = _build_solver_config(values)
    formats = tuple(p.strip() for p in values["output"]["formats"].split(",") if p.strip())
    for fmt in formats:
        if fmt not in ("csv", "snapshot"):
            raise ConfigError(f"invalid value for output.formats: unknown format {fmt!r}")
    return RunConfig(
        solver=solver_config,
        out_dir=values["output"]["dir"],
        formats=formats,
        effective=values,
    )


def parse_config(path, overrides=None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text, overrides)


def _render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, tuple):
        return ",".join(_render_value(x) for x in value)
    return str(value)


def render_effective(values: dict) -> str:
    """Canonical text of the effective configuration, defaults included."""
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            value = values[section][key]
            if value is None:
                continue
            lines.append(f"{key} = {_render_value(value)}")
        lines.append("")
    return "\n".join(lines)
