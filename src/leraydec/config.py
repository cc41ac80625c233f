"""Sectioned key-value run configuration.

The on-disk format is INI-shaped: named sections of key = value pairs.
Unknown sections or keys are rejected, every key is typed, and defaults are
part of the schema below.  The effective configuration (defaults filled in,
overrides applied) can be rendered back to canonical text; its SHA-256 is
the config hash recorded in run manifests.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass

from .fields import FieldSpec
from .filtering import DEFAULT_MAX_ORDER, FilterSpec
from .solver import ModelKind, SolverConfig
from .spectral import Grid

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


def _parse_floats(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(",") if p.strip())


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.split(",") if p.strip())


_FIELD_KEYS = {
    "kind": (str, "zero"),
    "amplitude": (float, 1.0),
    "mode": (_parse_mode, (1, 0, 0)),
    "slope": (float, -5.0 / 3.0),
    "seed": (int, 0),
    "band": (int, None),
    "expr": (str, ""),
}

SCHEMA: dict = {
    "grid": {
        "n": (int, REQUIRED),
        "dealias": (_parse_bool, True),
    },
    "model": {
        "kind": (str, "nse"),
        "delta": (float, None),
        "order": (int, 0),
        "max_order": (int, DEFAULT_MAX_ORDER),
        "filter_forcing": (_parse_bool, True),
        "filter_ic": (_parse_bool, True),
        "conv_form": (str, "advective"),
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
    "study": {
        "deltas": (_parse_floats, ()),
        "orders": (_parse_ints, ()),
        "delta": (float, 0.5),
        "fit_window": (int, None),
        "floor": (float, 1e-12),
    },
}


@dataclass
class RunConfig:
    """Everything a CLI invocation needs: solver setup plus output policy."""

    solver: SolverConfig
    out_dir: str
    formats: tuple
    effective: dict
    study: dict | None = None

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(render_effective(self.effective).encode()).hexdigest()


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
        if section == "study" and section not in raw:
            continue  # sweep defaults are honoured and echoed only when some are given
        typed[section] = {}
        for key, (convert, default) in keys.items():
            if key in raw.get(section, {}):
                raw_value = raw[section][key]
                try:
                    typed[section][key] = convert(raw_value)
                except (ValueError, TypeError) as exc:
                    raise ConfigError(f"invalid value for {section}.{key}: {exc}") from exc
            elif default is REQUIRED:
                raise ConfigError(f"missing required key {section}.{key}")
            else:
                typed[section][key] = default
    return typed


def _build_solver_config(v: dict) -> SolverConfig:
    if v["fluid"]["nu"] < 0:
        raise ConfigError("fluid.nu must be >= 0")
    if v["time"]["dt"] <= 0:
        raise ConfigError("time.dt must be positive")

    kind = v["model"]["kind"]
    if kind == "nse":
        model = ModelKind.nse()
        filter_spec = None
    elif kind == "leray_deconv":
        if v["model"]["delta"] is None:
            raise ConfigError("missing required key model.delta (required when model.kind = leray_deconv)")
        if v["model"]["delta"] <= 0:
            raise ConfigError("model.delta must be positive")
        model = ModelKind.leray_deconvolution(v["model"]["order"])
        try:
            filter_spec = FilterSpec(
                delta=v["model"]["delta"],
                order=v["model"]["order"],
                max_order=v["model"]["max_order"],
            )
        except ValueError as exc:
            raise ConfigError(f"invalid model filter: {exc}") from exc
    else:
        raise ConfigError(f"invalid value for model.kind: {kind!r} (expected nse or leray_deconv)")

    def field_spec(section: str) -> FieldSpec:
        s = v[section]
        try:
            return FieldSpec(
                kind=s["kind"],
                amplitude=s["amplitude"],
                mode=tuple(s["mode"]),
                slope=s["slope"],
                seed=s["seed"],
                band=s["band"],
                expr=s["expr"],
            )
        except ValueError as exc:
            raise ConfigError(f"invalid {section}.kind: {exc}") from exc

    try:
        grid = Grid(v["grid"]["n"])
        return SolverConfig(
            grid=grid,
            model=model,
            nu=v["fluid"]["nu"],
            dt=v["time"]["dt"],
            t_end=v["time"]["t_end"],
            filter=filter_spec,
            ic=field_spec("ic"),
            forcing=field_spec("forcing"),
            filter_forcing=v["model"]["filter_forcing"],
            filter_ic=v["model"]["filter_ic"],
            dealias=v["grid"]["dealias"],
            conv_form=v["model"]["conv_form"],
            snapshot_every=v["time"]["snapshot_every"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


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
        study=values.get("study"),
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
        if section not in values:
            continue
        lines.append(f"[{section}]")
        for key in keys:
            value = values[section][key]
            if value is None:
                continue
            lines.append(f"{key} = {_render_value(value)}")
        lines.append("")
    return "\n".join(lines)
