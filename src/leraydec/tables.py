"""CSV and JSON table output.

Every CSV starts with a `# schema: <name>/<major>` comment line so readers
can refuse files written by a newer layout.  Floats are written with %.17g,
which round-trips IEEE doubles exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os

import numpy as np

from .diagnostics import DiagRecord
from .filtering import TransferTable

DIAG_SCHEMA = ("diag", 1)
STUDY_SCHEMA = ("study", 1)
TRANSFER_SCHEMA = ("transfer", 1)
MANIFEST_SCHEMA = ("manifest", 1)


class TableError(ValueError):
    """Table file rejected: missing or incompatible schema marker, or content that does not parse."""


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def _write_csv(path, schema: tuple, header, rows, extra_comments=()) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema: {schema[0]}/{schema[1]}\n")
        for comment in extra_comments:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _check_schema(line: str, schema: tuple, path) -> None:
    prefix = "# schema: "
    if not line.startswith(prefix):
        raise TableError(f"{path}: missing schema marker")
    name, _, major = line[len(prefix):].strip().partition("/")
    if name != schema[0]:
        raise TableError(f"{path}: schema {name!r}, expected {schema[0]!r}")
    if not major.isdecimal():
        raise TableError(f"{path}: schema major {major!r} is not a number")
    if int(major) > schema[1]:
        raise TableError(f"{path}: schema major {major} is newer than supported ({schema[1]})")


def _read_csv(path, schema: tuple):
    """Header and a reader over the data rows of a CSV written by _write_csv."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        _check_schema(first, schema, path)
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("".join(lines)))
    return next(reader), reader


def write_diag_csv(path, records) -> None:
    _write_csv(path, DIAG_SCHEMA, DiagRecord.FIELDS,
               ([getattr(r, f) for f in DiagRecord.FIELDS] for r in records))


def read_diag_csv(path):
    header, reader = _read_csv(path, DIAG_SCHEMA)
    if tuple(header) != DiagRecord.FIELDS:
        raise TableError(f"{path}: unexpected columns {header}")
    try:
        return [DiagRecord(*(float(v) for v in row)) for row in reader if row]
    except ValueError as exc:
        raise TableError(f"{path}: {exc}") from exc


def write_transfer_csv(path, table: TransferTable) -> None:
    rows = zip(table.k, table.g_hat, table.d_hat, table.h_hat)
    _write_csv(path, TRANSFER_SCHEMA, ("k", "g_hat", "d_hat", "h_hat"), rows,
               extra_comments=(f"delta: {_fmt(table.spec.delta)} order: {table.spec.order}",))


def read_transfer_csv(path):
    """Read a transfer CSV back as a dict of float column arrays."""
    header, reader = _read_csv(path, TRANSFER_SCHEMA)
    columns = {name: [] for name in header}
    for row in reader:
        if not row:
            continue
        for name, value in zip(header, row):
            columns[name].append(float(value))
    return {name: np.asarray(vals) for name, vals in columns.items()}


def _jsonable(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_study_tables(out_dir, report) -> list:
    """Write one CSV per study table plus a JSON report; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, table in report.tables.items():
        header = list(table.keys())
        length = len(next(iter(table.values()))) if table else 0
        rows = ([table[col][i] for col in header] for i in range(length))
        path = os.path.join(out_dir, f"{report.kind}_{name}.csv")
        _write_csv(path, STUDY_SCHEMA, header, rows,
                   extra_comments=(f"study: {report.kind}",))
        written.append(path)

    fits = {key: dataclasses.asdict(fit) for key, fit in report.fits.items()}
    report_path = os.path.join(out_dir, f"{report.kind}_report.json")
    payload = {
        "schema": f"{STUDY_SCHEMA[0]}/{STUDY_SCHEMA[1]}",
        "kind": report.kind,
        "params": _jsonable(report.params),
        "fits": _jsonable(fits),
        "flags": _jsonable(report.flags),
        "metadata": _jsonable(report.metadata),
    }
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    written.append(report_path)
    return written


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, paths, config_hash: str) -> str:
    """Deterministic run manifest: schema, config hash, file list with digests."""
    entries = []
    for path in sorted(paths, key=lambda p: os.path.relpath(p, out_dir)):
        entries.append({
            "name": os.path.relpath(path, out_dir).replace(os.sep, "/"),
            "bytes": os.path.getsize(path),
            "sha256": file_sha256(path),
        })
    manifest = {
        "schema": f"{MANIFEST_SCHEMA[0]}/{MANIFEST_SCHEMA[1]}",
        "config_sha256": config_hash,
        "files": entries,
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def read_manifest(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise TableError(f"{path}: manifest is not JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise TableError(f"{path}: manifest is not a JSON object")
    schema = manifest.get("schema", "")
    name, _, major = str(schema).partition("/")
    if name != MANIFEST_SCHEMA[0] or not major.isdecimal() or int(major) > MANIFEST_SCHEMA[1]:
        raise TableError(f"{path}: unsupported manifest schema {schema!r}")
    return manifest
