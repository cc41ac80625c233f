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

import numpy as np

from . import diagnostics, experiments, filtering, tables
from .config import ConfigError, _parse_floats, _parse_ints, parse_config, render_effective
from .filtering import FilterSpec
from .snapshots import SnapshotError, read_snapshot, write_snapshot
from .solver import BlowUpError, run
from .tables import TableError


def _args_hash(parts: dict) -> str:
    canon = json.dumps(parts, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_effective(rc, out_dir) -> str:
    path = os.path.join(out_dir, "effective.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_effective(rc.effective))
    return path


def _write_study(out_dir, report, digest: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    written = tables.write_study_tables(out_dir, report)
    tables.write_manifest(out_dir, written, digest)
    print(f"wrote {len(written) + 1} files to {out_dir}")


def _load_run_config(args):
    overrides = list(args.set or [])
    if getattr(args, "out", None):
        overrides.append(f"output.dir={args.out}")
    return parse_config(args.config, overrides)


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


def cmd_transfer(args) -> int:
    orders = _parse_ints(args.orders)
    if not orders:
        raise ConfigError("transfer needs at least one order")
    os.makedirs(args.out, exist_ok=True)
    written = []

    if args.figures:
        spec = experiments.StudySpec(
            kind="transfer_figures",
            orders=orders,
            smoother_orders=_parse_ints(args.smoother_orders),
            k_max=args.k_max,
            k_points=args.points,
        )
        report = experiments.run_study(spec)
        written += tables.write_study_tables(args.out, report)
    else:
        ks = np.linspace(0.0, args.k_max, args.points)
        for order in orders:
            table = filtering.TransferTable.build(FilterSpec(delta=args.delta, order=order), ks)
            path = os.path.join(args.out, f"transfer_order_{order}.csv")
            tables.write_transfer_csv(path, table)
            written.append(path)

    digest = _args_hash({
        "cmd": "transfer", "delta": args.delta, "orders": list(orders),
        "k_max": args.k_max, "points": args.points, "figures": args.figures,
        "smoother_orders": args.smoother_orders,
    })
    tables.write_manifest(args.out, written, digest)
    print(f"wrote {len(written) + 1} files to {args.out}")
    return 0


def _study_from_config(args, kind: str):
    """The sweep's [study] values (keys named as StudySpec fields), flags taking precedence."""
    rc = _load_run_config(args)
    flags = {
        "deltas": _parse_floats(args.deltas) if args.deltas else None,
        "orders": _parse_ints(args.orders) if args.orders else None,
        "delta": args.delta,
        "fit_window": args.fit_window,
    }
    values = dict(rc.study or {})
    values.update((key, value) for key, value in flags.items() if value is not None)
    return experiments.StudySpec(kind=kind, base=rc.solver, **values), rc


def _print_fits(report) -> None:
    for key, fit in sorted(report.fits.items()):
        if fit.degenerate:
            print(f"{key}: degenerate (errors at floor or nonpositive)")
        else:
            print(f"{key}: slope {fit.slope:.4f} (expected {fit.expected:g}, window {len(fit.window)})")
    for flag in report.flags:
        print(f"flag: {flag}")


def cmd_sweep_delta(args) -> int:
    spec, rc = _study_from_config(args, "delta_rate")
    if not spec.deltas:
        raise ConfigError("sweep-delta needs --deltas or a [study] deltas entry")
    if not spec.orders:
        raise ConfigError("sweep-delta needs --orders or a [study] orders entry")
    report = experiments.run_study(spec)
    _print_fits(report)
    _write_study(args.out, report, rc.config_hash)
    return 0


def cmd_sweep_n(args) -> int:
    spec, rc = _study_from_config(args, "n_limit")
    if not spec.orders:
        raise ConfigError("sweep-n needs --orders or a [study] orders entry")
    report = experiments.run_study(spec)
    table = report.tables["main"]
    for i, order in enumerate(table["order"]):
        print(f"order {order}: l2l2 {table['l2l2'][i]:.6e}  wall {table['wall_seconds'][i]:.4g}s")
    for flag in report.flags:
        print(f"flag: {flag}")
    _write_study(args.out, report, rc.config_hash)
    return 0


def cmd_cutoff(args) -> int:
    spec = experiments.StudySpec(
        kind="cutoff_table",
        deltas=_parse_floats(args.deltas) if args.deltas else (),
        orders=_parse_ints(args.orders) if args.orders else (),
    )
    report = experiments.run_study(spec)
    table = report.tables["main"]
    headers = list(table.keys())
    print("  ".join(f"{h:>16s}" for h in headers))
    for i in range(len(table["order"])):
        print("  ".join(f"{table[h][i]:>16}" for h in headers))
    for flag in report.flags:
        print(f"flag: {flag}")
    if args.out:
        digest = _args_hash({"cmd": "cutoff", "deltas": args.deltas, "orders": args.orders})
        _write_study(args.out, report, digest)
    return 0


def cmd_consistency(args) -> int:
    spec = experiments.StudySpec(
        kind="consistency_rate",
        deltas=_parse_floats(args.deltas) if args.deltas else (),
        orders=_parse_ints(args.orders) if args.orders else (),
        grid_n=args.grid_n,
        fit_window=args.fit_window,
    )
    report = experiments.run_study(spec)
    _print_fits(report)
    if args.out:
        digest = _args_hash({
            "cmd": "consistency", "deltas": args.deltas,
            "orders": args.orders, "grid_n": args.grid_n,
        })
        _write_study(args.out, report, digest)
    return 1 if "bound_violated" in report.flags else 0


def _read_snapshot_dir(path):
    files = sorted(glob.glob(os.path.join(path, "*.snap")))
    if not files:
        raise SnapshotError(f"{path}: no .snap files found")
    snaps = []
    grid = None
    for f in files:
        field, _ = read_snapshot(f, expected_grid=grid)
        grid = field.grid
        snaps.append(field)
    return SimpleNamespace(snapshots=snaps)


def cmd_compare(args) -> int:
    traj_model = _read_snapshot_dir(args.model)
    traj_ref = _read_snapshot_dir(args.reference)
    err = diagnostics.model_error(traj_model, traj_ref)
    print(f"l2_final:   {err.l2_final:.12e}")
    print(f"l2l2:       {err.l2l2:.12e}")
    print(f"h1_timeavg: {err.h1_timeavg:.12e}")
    if args.json:
        payload = dataclasses.asdict(err)
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
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

    p = sub.add_parser("transfer", help="tabulate filter/deconvolution transfer functions")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--orders", default="0,1,2")
    p.add_argument("--smoother-orders", default="0,10,50")
    p.add_argument("--k-max", type=float, default=10.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--figures", action="store_true",
                   help="write combined curve tables on the rescaled axis instead")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("sweep-delta", help="model-vs-reference error as the filter radius shrinks")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p.add_argument("--deltas", help="comma-separated, strictly decreasing")
    p.add_argument("--orders")
    p.add_argument("--fit-window", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_delta, delta=None)

    p = sub.add_parser("sweep-n", help="model error and cost as deconvolution order grows")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE")
    p.add_argument("--delta", type=float)
    p.add_argument("--orders")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep_n, deltas=None, fit_window=None)

    p = sub.add_parser("cutoff", help="smoother cutoff wavenumber table")
    p.add_argument("--deltas")
    p.add_argument("--orders")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cutoff)

    p = sub.add_parser("consistency", help="consistency-tensor size and bounds on an analytic field")
    p.add_argument("--deltas")
    p.add_argument("--orders")
    p.add_argument("--grid-n", type=int, default=16)
    p.add_argument("--fit-window", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_consistency)

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
