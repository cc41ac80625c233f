"""Binary snapshot files for velocity fields in coefficient space.

Layout (little-endian throughout):

    offset  size  field
    0       8     magic "LDSNAP01"
    8       4     u32  n            grid points per direction
    12      8     f64  t            simulation time
    20      8     f64  delta        filter radius (0 when unfiltered)
    28      4     u32  order        deconvolution order (0 when unfiltered)
    32      4     u32  model tag    0 = nse, 1 = leray_deconv
    36      4     u32  layout version (currently 1)
    40      --    3*n^3 complex128  coefficients, C order, component-major

The payload is the raw coefficient array, so a write/read round trip is
bit-exact; a field held on a band is written padded to the full grid.
Readers reject unknown magic, a layout version outside 1..LAYOUT_VERSION, a
grid size Grid rejects, and a truncated or oversized payload, the last two
from the file size before the payload array is allocated.  The payload is
read straight into that array and written from the field's own buffer.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .spectral import Grid, ParameterError, SpectralField

MAGIC = b"LDSNAP01"
LAYOUT_VERSION = 1
_HEADER = struct.Struct("<8sIddIII")

_MODEL_TAGS = {"nse": 0, "leray_deconv": 1}
_MODEL_FAMILIES = {tag: family for family, tag in _MODEL_TAGS.items()}


class SnapshotError(ValueError):
    """Snapshot file rejected: bad magic, version, size, or grid mismatch."""


@dataclass(frozen=True)
class SnapshotMeta:
    n: int
    t: float
    delta: float
    order: int
    model_family: str
    version: int


def write_snapshot(path, field: SpectralField, model_family: str = "nse",
                   delta: float = 0.0, order: int = 0) -> None:
    if model_family not in _MODEL_TAGS:
        raise SnapshotError(f"unknown model family {model_family!r}")
    n = field.grid.n
    header = _HEADER.pack(MAGIC, n, float(field.t), float(delta), int(order),
                          _MODEL_TAGS[model_family], LAYOUT_VERSION)
    payload = np.ascontiguousarray(field.padded().coeffs, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)  # the array's own buffer: no bytes copy of it


def read_snapshot(path, expected_grid: Grid | None = None):
    """Read one snapshot; returns (SpectralField, SnapshotMeta)."""
    with open(path, "rb") as fh:
        raw_header = fh.read(_HEADER.size)
        if len(raw_header) < _HEADER.size:
            raise SnapshotError(f"{path}: truncated header")
        magic, n, t, delta, order, tag, version = _HEADER.unpack(raw_header)
        if magic != MAGIC:
            raise SnapshotError(f"{path}: bad magic {magic!r}")
        if version > LAYOUT_VERSION:
            raise SnapshotError(f"{path}: layout version {version} is newer than supported ({LAYOUT_VERSION})")
        if version < 1:
            raise SnapshotError(f"{path}: invalid layout version {version}")
        if tag not in _MODEL_FAMILIES:
            raise SnapshotError(f"{path}: unknown model tag {tag}")
        if expected_grid is not None and expected_grid.n != n:
            raise SnapshotError(f"{path}: grid n={n} does not match expected n={expected_grid.n}")
        try:
            grid = expected_grid or Grid(n)
        except ParameterError as exc:
            raise SnapshotError(f"{path}: {exc}") from None
        expected_bytes = 3 * n * n * n * 16
        payload_bytes = os.fstat(fh.fileno()).st_size - _HEADER.size
        if payload_bytes == expected_bytes:  # checked before anything is allocated
            coeffs = np.empty((3, n, n, n), dtype="<c16")
            payload_bytes = fh.readinto(coeffs)  # straight into the array, no bytes copy
        if payload_bytes != expected_bytes:
            raise SnapshotError(f"{path}: payload is {payload_bytes} bytes, expected {expected_bytes}")

    meta = SnapshotMeta(n=n, t=t, delta=delta, order=order,
                        model_family=_MODEL_FAMILIES[tag], version=version)
    return SpectralField(grid=grid, coeffs=coeffs, t=t), meta
