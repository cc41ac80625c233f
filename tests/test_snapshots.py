"""Binary snapshot format: bit-exact round trips and rejection paths."""

import struct
import tracemalloc

import numpy as np
import pytest

import leraydec as ld
from leraydec import snapshots

from conftest import energy


def test_round_trip_bit_exact(tmp_path, rand16, grid16):
    field = rand16.with_coeffs(rand16.coeffs, t=0.375)
    path = tmp_path / "a.snap"
    snapshots.write_snapshot(path, field, model_family="leray_deconv", delta=0.5, order=3)
    back, meta = snapshots.read_snapshot(path, expected_grid=grid16)
    assert np.array_equal(back.coeffs, field.coeffs)  # bitwise, not approx
    assert back.t == 0.375
    assert meta == snapshots.SnapshotMeta(
        n=16, t=0.375, delta=0.5, order=3, model_family="leray_deconv", version=1
    )
    assert back.grid is grid16


def test_read_without_expected_grid(tmp_path, rand16):
    path = tmp_path / "a.snap"
    snapshots.write_snapshot(path, rand16)
    back, meta = snapshots.read_snapshot(path)
    assert back.grid.n == 16
    assert meta.model_family == "nse"
    assert meta.delta == 0.0 and meta.order == 0


def test_write_rejects_unknown_family(tmp_path, rand16):
    with pytest.raises(snapshots.SnapshotError, match="unknown model family"):
        snapshots.write_snapshot(tmp_path / "a.snap", rand16, model_family="les")


def test_bad_magic_rejected(tmp_path, rand16):
    path = tmp_path / "a.snap"
    snapshots.write_snapshot(path, rand16)
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTASNAP"
    path.write_bytes(bytes(blob))
    with pytest.raises(snapshots.SnapshotError, match="bad magic"):
        snapshots.read_snapshot(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "a.snap"
    path.write_bytes(snapshots.MAGIC + b"\x00" * 10)
    with pytest.raises(snapshots.SnapshotError, match="truncated header"):
        snapshots.read_snapshot(path)


def test_truncated_payload_rejected(tmp_path, rand16):
    path = tmp_path / "a.snap"
    snapshots.write_snapshot(path, rand16)
    blob = path.read_bytes()
    path.write_bytes(blob[:-16])
    with pytest.raises(snapshots.SnapshotError, match="payload"):
        snapshots.read_snapshot(path)
    expected = 3 * 16**3 * 16
    path.write_bytes(blob + bytes(16))  # oversized
    with pytest.raises(snapshots.SnapshotError, match=f"payload is {expected + 16} bytes, expected {expected}"):
        snapshots.read_snapshot(path)


def _peak_bytes(func, *args):
    tracemalloc.start()
    try:
        func(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_payload_size_is_checked_before_allocating(tmp_path, rand16):
    # a 128^3 header with a 16^3 payload: rejected from the header and the
    # file size, with nothing of the 100 MB it names allocated
    path = tmp_path / "a.snap"
    snapshots.write_snapshot(path, rand16)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 8, 128)
    path.write_bytes(bytes(blob))

    def read():
        with pytest.raises(snapshots.SnapshotError, match=f"expected {3 * 128**3 * 16}"):
            snapshots.read_snapshot(path)

    assert _peak_bytes(read) < 2**16


def test_snapshot_io_holds_at_most_one_field_copy(tmp_path, rand16, grid16):
    """Reads go straight into one array and writes send the array's own
    buffer: a full field is written with no copy, a band field with its
    padding alone."""
    field_bytes = rand16.coeffs.nbytes
    band = ld.spectral.Band(grid16, grid16.dealias_cutoff)
    on_band = ld.SpectralField(grid16, band.restrict(rand16.coeffs), 0.25, band)
    full_path, band_path = tmp_path / "full.snap", tmp_path / "band.snap"
    assert _peak_bytes(snapshots.write_snapshot, full_path, rand16) < 0.25 * field_bytes
    assert _peak_bytes(snapshots.write_snapshot, band_path, on_band) < 1.25 * field_bytes
    assert _peak_bytes(snapshots.read_snapshot, full_path, grid16) < 1.25 * field_bytes
    back, _ = snapshots.read_snapshot(band_path, grid16)
    assert np.array_equal(back.coeffs, on_band.padded().coeffs)
    assert band_path.read_bytes()[snapshots._HEADER.size:] == on_band.padded().coeffs.tobytes()


def test_newer_version_rejected(tmp_path, rand16):
    path = tmp_path / "a.snap"
    snapshots.write_snapshot(path, rand16)
    blob = bytearray(path.read_bytes())
    # version 0 predates the first layout
    for version, match in [(snapshots.LAYOUT_VERSION + 1, "newer"), (0, "invalid layout version 0")]:
        struct.pack_into("<I", blob, 36, version)
        path.write_bytes(bytes(blob))
        with pytest.raises(snapshots.SnapshotError, match=match) as err:
            snapshots.read_snapshot(path)
        assert str(path) in str(err.value)


def test_unknown_model_tag_rejected(tmp_path, rand16):
    path = tmp_path / "a.snap"
    snapshots.write_snapshot(path, rand16)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 32, 99)
    path.write_bytes(bytes(blob))
    with pytest.raises(snapshots.SnapshotError, match="model tag"):
        snapshots.read_snapshot(path)


def test_grid_mismatch_rejected(tmp_path, rand16):
    path = tmp_path / "a.snap"
    snapshots.write_snapshot(path, rand16)
    with pytest.raises(snapshots.SnapshotError, match="does not match"):
        snapshots.read_snapshot(path, expected_grid=ld.Grid(8))
    # a header size Grid rejects, with a payload of that size
    header = path.read_bytes()[:snapshots._HEADER.size]
    for n in (5, 2):
        bad = bytearray(header)
        struct.pack_into("<I", bad, 8, n)
        path.write_bytes(bytes(bad) + bytes(3 * n**3 * 16))
        with pytest.raises(snapshots.SnapshotError, match=f"even and >= 4, got {n}") as err:
            snapshots.read_snapshot(path)
        assert str(path) in str(err.value)


def test_round_trip_preserves_field_invariants(tmp_path, grid16):
    field = ld.taylor_green(grid16)
    path = tmp_path / "tg.snap"
    snapshots.write_snapshot(path, field)
    back, _ = snapshots.read_snapshot(path, expected_grid=grid16)
    ld.validate_field(back, solenoidal=True)
    assert energy(back) == energy(field)
