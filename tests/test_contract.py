"""No input ends in a traceback.

Generated values for every configuration key may only be rejected with a
ConfigError that names a key, and corrupted bytes in every output file may
only be rejected with the reader's own error naming the file.  Hypothesis
runs derandomized with few examples, and nothing here runs the solver, so
the contract is cheap and repeatable.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import leraydec as ld
from leraydec import config, snapshots, tables
from leraydec.diagnostics import DiagRecord

# On a failure Hypothesis imports libcst to suggest a patch, and that import
# warns; under warnings-as-errors the warning would abort the whole pytest run.
pytestmark = pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

KEYS = [f"{section}.{key}" for section, keys in config.SCHEMA.items() for key in keys]

BASE = """
[grid]
n = 8

[fluid]
nu = 0.1

[time]
dt = 0.01
t_end = 0.1
"""

# extreme numbers, huge integers, empty values, junk and non-ASCII text,
# alone or joined by commas into lists and integer triples (modes)
INTEGERS = st.one_of(st.integers(min_value=-(10**30), max_value=10**30).map(str),
                     st.sampled_from(["9" * 20, "-" + "9" * 20]))
ATOMS = st.one_of(
    INTEGERS,
    st.sampled_from(["", " ", "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "true", "no",
                     "\u00e9", "\u0663"]),
    st.floats().map(repr),
    st.text(max_size=8),
)
VALUES = st.one_of(st.lists(ATOMS, min_size=1, max_size=3),
                   st.lists(INTEGERS, min_size=3, max_size=3)).map(",".join)

# no shrinking: a failure reports the generated example as drawn, in seconds
CONTRACT = settings(derandomize=True, max_examples=20, deadline=None, database=None,
                    phases=[Phase.explicit, Phase.generate])


def _read_under(key: str) -> tuple:
    """Settings under which a key that only some kinds read is read."""
    section, name = key.split(".")
    if section in ("ic", "forcing"):
        kind = {"mode": "single_mode", "expr": "manufactured"}.get(name, "random_solenoidal")
        return (f"{section}.kind={kind}",)
    if section == "model":
        return ("model.kind=leray_deconv", "model.delta=0.5")
    return ()


@CONTRACT
@given(values=st.fixed_dictionaries({key: VALUES for key in KEYS}))
def test_every_key_takes_any_value_or_rejects_it_by_key(values):
    for key, value in values.items():
        try:
            config.parse_config_text(BASE, overrides=[*_read_under(key), f"{key}={value}"])
        except config.ConfigError as exc:
            assert any(re.search(rf"\b{re.escape(name)}\b", str(exc)) for name in KEYS), str(exc)


READERS = {
    "read_diag_csv": (tables.read_diag_csv, tables.TableError),
    "read_transfer_csv": (tables.read_transfer_csv, tables.TableError),
    "read_manifest": (tables.read_manifest, tables.TableError),
    "read_snapshot": (snapshots.read_snapshot, snapshots.SnapshotError),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small valid file of each kind the readers read back, by reader name."""
    directory = tmp_path_factory.mktemp("valid")
    diag, transfer, snap = directory / "diag.csv", directory / "transfer.csv", directory / "0000.snap"
    tables.write_diag_csv(diag, [DiagRecord(0.01 * i, 0.125, 0.75, 0.075, 1e-3, -2.5e-17) for i in range(4)])
    tables.write_transfer_csv(transfer, ld.TransferTable.build(ld.FilterSpec(delta=0.5, order=2),
                                                               np.linspace(0.0, 4.0, 5)))
    snapshots.write_snapshot(snap, ld.random_solenoidal(ld.Grid(8), seed=5), "leray_deconv", 0.5, 2)
    manifest = tables.write_manifest(directory, [str(diag), str(transfer), str(snap)], "c0ffee")
    return {"read_diag_csv": diag, "read_transfer_csv": transfer, "read_manifest": Path(manifest),
            "read_snapshot": snap}


# an edit is (where, wrapped to the length, so small offsets and the header
# come often; what: truncate there, overwrite, insert or delete bytes there)
EDITS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2**20),
              st.sampled_from(["truncate", "overwrite", "insert", "delete"]),
              st.binary(min_size=1, max_size=8)),
    min_size=1, max_size=3)


def _corrupted(data: bytes, edits) -> bytes:
    for where, kind, chunk in edits:
        at = where % (len(data) + 1)
        if kind == "truncate":
            data = data[:at]
        elif kind == "overwrite":
            data = data[:at] + chunk + data[at + len(chunk):]
        elif kind == "insert":
            data = data[:at] + chunk + data[at:]
        else:
            data = data[:at] + data[at + len(chunk):]
    return data


@CONTRACT
@given(edits=st.fixed_dictionaries({name: EDITS for name in READERS}))
def test_corrupted_files_are_read_or_rejected_by_path(valid_files, tmp_path_factory, edits):
    for name, (read, error) in READERS.items():
        path = tmp_path_factory.getbasetemp() / f"corrupted-{name}"
        path.write_bytes(_corrupted(valid_files[name].read_bytes(), edits[name]))
        try:
            read(path)
        except error as exc:
            assert str(path) in str(exc)
