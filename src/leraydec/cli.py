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
from .config import ConfigError, _built, _parse_floats, _parse_ints, parse_config, render_effective
from .snapshots import SnapshotError, read_snapshot, write_snapshot
from .solver import BlowUpError, run
from .tables import TableError


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


# StudySpec field: (flag, argparse keywords, parser of a list flag).  A flag's dest is its field.
_STUDY_FLAGS = {
    "deltas": ("--deltas", {"help": "comma-separated, strictly decreasing"}, _parse_floats),
    "orders": ("--orders", {}, _parse_ints),
    "delta": ("--delta", {"type": float}, None),
    "fit_window": ("--fit-window", {"type": int}, None),
    "grid_n": ("--grid-n", {"type": int}, None),
    "k_max": ("--k-max", {"type": float}, None),
    "k_points": ("--points", {"type": int}, None),
}


def _study_spec(args, kind: str, rc=None):
    """The command's StudySpec: the run config's [study] values, given flags on top.

    Every value, from the config or a flag, is checked by StudySpec and a
    rejected one is reported against its `study.<field>` key.
    """
    values = dict(rc.study or {}, base=rc.solver) if rc is not None else {}
    for name, (_, _, parse) in _STUDY_FLAGS.items():
        raw = getattr(args, name, None)
        if raw is None or raw == "":
            continue
        try:
            values[name] = parse(raw) if parse else raw
        except ValueError as exc:
            raise ConfigError(f"invalid value for study.{name}: {exc}") from exc
    return _built(experiments.StudySpec, kind=kind, section="study", **values)


def _study_digest(command: str, spec, flags, rc=None) -> str:
    """sha256 of the command, the run config's hash when it reads --config and
    the resolved StudySpec value of each of its flags: requests that resolve
    alike share a digest however their flags are spelled."""
    parts = {"cmd": command, **{name: getattr(spec, name) for name in flags}}
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
        order = model.order if model.is_regularized else 0
        for i, snap in enumerate(traj.snapshots):
            path = os.path.join(rc.out_dir, f"snap_{i:06d}.snap")
            write_snapshot(path, snap, model_family=model.family, delta=delta, order=order)
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


# command: (study kind, help, printer, flags, required fields, reads --config).
# A command that reads --config takes its scenario from there and must be given --out.
_STUDY_COMMANDS = {
    "transfer": ("transfer", "tabulate filter, deconvolution and smoother multipliers at one radius",
                 _print_table, ("delta", "orders", "k_max", "k_points"), ("orders",), False),
    "sweep-delta": ("delta_rate", "model-vs-reference error as the filter radius shrinks",
                    _print_fits, ("deltas", "orders", "fit_window"), ("deltas", "orders"), True),
    "sweep-n": ("n_limit", "model error and cost as deconvolution order grows",
                _print_orders, ("delta", "orders"), ("orders",), True),
    "cutoff": ("cutoff_table", "smoother cutoff wavenumber table",
               _print_table, ("deltas", "orders"), (), False),
    "consistency": ("consistency_rate", "consistency-tensor size and bounds on an analytic field",
                    _print_fits, ("deltas", "orders", "grid_n", "fit_window"), (), False),
}


def cmd_study(args) -> int:
    kind, _, printer, flags, required, reads_config = _STUDY_COMMANDS[args.command]
    rc = _load_run_config(args) if reads_config else None
    spec = _study_spec(args, kind, rc)
    for name in required:
        if not getattr(spec, name):
            entry = f" or a [study] {name} entry" if reads_config else ""
            raise ConfigError(f"{args.command} needs {_STUDY_FLAGS[name][0]}{entry}")
    report = experiments.run_study(spec)
    printer(report)
    for flag in report.flags:
        print(f"flag: {flag}")
    if args.out:
        _write_study(args.out, report, _study_digest(args.command, spec, flags, rc))
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


def _add_study_flags(parser, names) -> None:
    for name in names:
        flag, keywords, _ = _STUDY_FLAGS[name]
        parser.add_argument(flag, dest=name, **keywords)


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

    for command, (_, help_text, _, flags, _, reads_config) in _STUDY_COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if reads_config:
            p.add_argument("--config", required=True)
            p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
        _add_study_flags(p, flags)
        p.add_argument("--out", required=reads_config)
        p.set_defaults(func=cmd_study)
        if command == "transfer":
            p.set_defaults(delta=1.0, orders="0,1,2")  # over StudySpec's defaults

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
    except (ConfigError, SnapshotError, TableError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
