"""Command-line front end.

Subcommands cover single runs, transfer-function tables, the delta and
order sweeps, cutoff and consistency tables, and trajectory comparison.
Exit codes: 0 success, 1 validation or input failure, 2 solution blow-up.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import hashlib
import json
import os
import sys
from types import SimpleNamespace

from . import diagnostics, experiments, tables
from .config import ConfigError, _built, parse_config, render_effective
from .snapshots import SnapshotError, read_snapshot, write_snapshot
from .solver import BlowUpError, run


def _write_effective(rc, out_dir) -> str:
    path = os.path.join(out_dir, "effective.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_effective(rc.effective))
    return path


def _write_study(out_dir, report, digest: str) -> None:
    written = tables.write_study_tables(out_dir, report)
    tables.write_manifest(out_dir, written, digest)
    print(f"wrote {len(written) + 1} files to {out_dir}")


def _load_run_config(args):
    overrides = list(args.set or [])
    if getattr(args, "out", None):
        overrides.append(f"output.dir={args.out}")
    return parse_config(args.config, overrides)


def _parse_list(convert):
    """Parser of a comma-separated list flag; a blank value is the flag left out, an empty item an error."""
    def parse(raw: str) -> tuple:
        items = [p.strip() for p in raw.split(",")] if raw.strip() else []
        if "" in items:
            raise ValueError(f"empty item in list {raw!r}")
        return tuple(map(convert, items))
    return parse


# StudySpec field: (flag, argparse keywords, parser of a list flag).  A flag's dest is its field.
_STUDY_FLAGS = {
    "deltas": ("--deltas", {"help": "comma-separated, strictly decreasing"}, _parse_list(float)),
    "orders": ("--orders", {}, _parse_list(int)),
    "delta": ("--delta", {"type": float}, None),
    "fit_window": ("--fit-window", {"type": int}, None),
    "grid_n": ("--grid-n", {"type": int}, None),
    "k_max": ("--k-max", {"type": float}, None),
    "k_points": ("--points", {"type": int}, None),
}


def _study_spec(args, kind: str, rc=None):
    """The command's StudySpec, from its flags alone; a command whose kind
    requests `base` adds the run config's solver scenario as `base`.

    A flag left out takes StudySpec's default for the kind.  Every given
    flag is checked by StudySpec and a rejected one is reported against its
    `study.<field>` key.
    """
    values = {"base": rc.solver} if rc is not None else {}
    for name, (_, _, parse) in _STUDY_FLAGS.items():
        raw = getattr(args, name, None)
        if raw is None:
            continue
        try:
            values[name] = parse(raw) if parse else raw
        except ValueError as exc:
            raise ConfigError(f"invalid value for study.{name}: {exc}") from exc
    return _built(experiments.StudySpec, kind=kind, section="study", **values)


def _study_digest(command: str, params: dict, rc=None) -> str:
    """sha256 of the command, the run config's hash when it reads --config and
    the report's params, the resolved request: requests that resolve alike
    share a digest however their flags are spelled."""
    parts = {"cmd": command, **params}
    if rc is not None:
        parts["config_sha256"] = rc.config_hash
    return hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()


def cmd_run(args) -> int:
    rc = _load_run_config(args)
    os.makedirs(rc.out_dir, exist_ok=True)

    code = 0
    try:
        traj = run(rc.solver)
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        traj = exc.trajectory
        code = 2

    written = [_write_effective(rc, rc.out_dir)]
    if "csv" in rc.formats and traj.records:
        diag_path = os.path.join(rc.out_dir, "diag.csv")
        tables.write_diag_csv(diag_path, traj.records)
        written.append(diag_path)
    if "snapshot" in rc.formats:
        model = rc.solver.model
        delta = rc.solver.filter.delta if rc.solver.filter is not None else 0.0
        for i, snap in enumerate(traj.snapshots):
            path = os.path.join(rc.out_dir, f"snap_{i:06d}.snap")
            write_snapshot(path, snap, model_family=model.family, delta=delta, order=model.order)
            written.append(path)
    tables.write_manifest(rc.out_dir, written, rc.config_hash)

    print(f"config sha256: {rc.config_hash}")
    if traj.records:
        last = traj.records[-1]
        print(f"steps: {traj.stats.steps}  t: {last.t:.6g}  energy: {last.energy:.9g}")
    print(f"wall seconds: {traj.stats.wall_seconds:.4g}")
    print(f"wrote {len(written) + 1} files to {rc.out_dir}")
    return code


def _print_fits(report) -> None:
    for key, fit in sorted(report.fits.items()):
        if fit.degenerate:
            print(f"{key}: degenerate (errors at floor or nonpositive)")
        else:
            print(f"{key}: slope {fit.slope:.4f} (expected {fit.expected:g}, window {len(fit.window)})")


def _print_orders(report) -> None:
    table = report.tables["main"]
    for i, order in enumerate(table["order"]):
        print(f"order {order}: l2l2 {table['l2l2'][i]:.6e}  wall {table['wall_seconds'][i]:.4g}s")


def _print_table(report) -> None:
    table = report.tables["main"]
    print("  ".join(f"{h:>16s}" for h in table))
    for row in zip(*table.values()):
        print("  ".join(f"{v:>16}" for v in row))


# command: (study kind, help, printer).  A command's flags are its kind's request
# (experiments.request); one whose request holds `base` reads it from --config
# and must be given --out.  A flag left out takes StudySpec's default for the kind.
_STUDY_COMMANDS = {
    "transfer": ("transfer", "tabulate filter, deconvolution and smoother multipliers at one radius", _print_table),
    "sweep-delta": ("delta_rate", "model-vs-reference error as the filter radius shrinks", _print_fits),
    "sweep-n": ("n_limit", "model error and cost as deconvolution order grows", _print_orders),
    "cutoff": ("cutoff_table", "smoother cutoff wavenumber table", _print_table),
    "consistency": ("consistency_rate", "consistency-tensor size and bounds on an analytic field", _print_fits),
}


def cmd_study(args) -> int:
    kind, _, printer = _STUDY_COMMANDS[args.command]
    rc = _load_run_config(args) if "base" in experiments.request(kind) else None
    spec = _study_spec(args, kind, rc)
    report = experiments.run_study(spec)
    printer(report)
    for flag in report.flags:
        print(f"flag: {flag}")
    if args.out:
        _write_study(args.out, report, _study_digest(args.command, report.params, rc))
    return 1 if "bound_violated" in report.flags else 0


def _read_snapshot_dir(path):
    """The directory's snapshots, read one at a time as they are iterated."""
    files = sorted(glob.glob(os.path.join(path, "*.snap")))
    if not files:
        raise SnapshotError(f"{path}: no .snap files found")

    def snapshots():
        grid = None
        for f in files:
            field, _ = read_snapshot(f, expected_grid=grid)
            grid = field.grid
            yield field
            del field  # not held while the next one is read
    return SimpleNamespace(snapshots=snapshots())


def cmd_compare(args) -> int:
    traj_model = _read_snapshot_dir(args.model)
    traj_ref = _read_snapshot_dir(args.reference)
    err = diagnostics.model_error(traj_model, traj_ref)
    print(f"l2_final:   {err.l2_final:.12e}")
    print(f"l2l2:       {err.l2l2:.12e}")
    print(f"h1_timeavg: {err.h1_timeavg:.12e}")
    print(f"cutoff:     {err.cutoff}")
    if args.json:
        tables.write_json(args.json, dataclasses.asdict(err))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leraydec",
        description="Pseudo-spectral runs and analyses for filtered-deconvolution flow models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="integrate one configuration and write diagnostics")
    p.add_argument("--config", required=True, help="path to an INI run configuration")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override a configuration value (repeatable)")
    p.add_argument("--out", help="output directory (overrides output.dir)")
    p.set_defaults(func=cmd_run)

    for command, (kind, help_text, _) in _STUDY_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        request = experiments.request(kind)
        if "base" in request:
            p.add_argument("--config", required=True)
            p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
        for name in request:
            if name != "base":
                flag, keywords, _ = _STUDY_FLAGS[name]
                p.add_argument(flag, dest=name, **keywords)
        p.add_argument("--out", required="base" in request)
        p.set_defaults(func=cmd_study)

    p = sub.add_parser("compare", help="error norms between two snapshot directories")
    p.add_argument("--model", required=True, help="directory of model .snap files")
    p.add_argument("--reference", required=True, help="directory of reference .snap files")
    p.add_argument("--json", help="also write the metrics to this JSON path")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 reserved for blow-up
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # ConfigError, SnapshotError and TableError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
