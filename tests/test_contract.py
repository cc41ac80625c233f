"""No input ends in a traceback.

Generated values for every configuration key may only be rejected with a
ConfigError that names a key, generated values for every flag of the study
commands that read no run config may only be rejected with an error naming
its `study.<field>`, and corrupted bytes in every output file may only be
rejected with the reader's own error naming the file.  Hypothesis runs
derandomized with few examples, and nothing here runs the solver, so the
contract is cheap and repeatable.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import leraydec as ld
from leraydec import cli, config, snapshots, tables
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


# numbers as a flag spells them, the extremes included, or junk; a list flag
# also gets decreasing radii, which pass its checks, so the studies run too
NUMBERS = st.one_of(st.floats().map(repr), INTEGERS,
                    st.sampled_from(["nan", "-inf", "1e308", "1e-308", "5e-324", "0", "-0.0"]))
RADII = st.lists(st.floats(min_value=5e-324, max_value=1e308), min_size=1, max_size=4, unique=True).map(
    lambda ds: ",".join(map(repr, sorted(ds, reverse=True))))
FLAG_VALUES = {
    "deltas": st.one_of(RADII, VALUES),
    "orders": st.one_of(st.lists(st.integers(-1, 66).map(str), max_size=3).map(",".join), VALUES),
    "delta": NUMBERS,
    "fit_window": st.one_of(st.integers(-1, 6).map(str), INTEGERS),
    "k_max": NUMBERS,
    "k_points": st.integers(-1, 1000).map(str),  # capped, so each table stays small
}
# the study commands that read no run config, each with the flags it is given
# at a fixed value: consistency runs on an 8^3 grid
FIXED_FLAGS = {"cutoff": {}, "transfer": {}, "consistency": {"grid_n": "8"}}


@pytest.mark.parametrize("command", FIXED_FLAGS)
@CONTRACT
@given(values=st.fixed_dictionaries({}, optional=FLAG_VALUES))
@example(values={"deltas": "1e-308", "orders": "0"})
@example(values={"deltas": "5e-324", "orders": "0"})
@example(values={"deltas": "1e300,1e200,1e100"})
def test_every_study_flag_takes_any_value_or_rejects_it_by_field(tmp_path_factory, command, values):
    flags = cli._STUDY_COMMANDS[command][3]
    given_values = {**{name: v for name, v in values.items() if name in flags}, **FIXED_FLAGS[command]}
    args = [f"{cli._STUDY_FLAGS[name][0]}={value}" for name, value in given_values.items()]
    out = tmp_path_factory.mktemp(command) / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main([command, *args, "--out", str(out)])
    if code == 0:
        assert (out / "manifest.json").is_file()
    else:
        assert code == 1 and not out.exists(), stderr.getvalue()
        rejected = re.match(r"error: invalid value for study\.(\w+): ", stderr.getvalue())
        assert rejected and rejected[1] in given_values, stderr.getvalue()


READERS = {
    "read_diag_csv": (tables.read_diag_csv, tables.TableError),
    "read_manifest": (tables.read_manifest, tables.TableError),
    "read_snapshot": (snapshots.read_snapshot, snapshots.SnapshotError),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """One small valid file of each kind the readers read back, by reader name."""
    directory = tmp_path_factory.mktemp("valid")
    diag, snap = directory / "diag.csv", directory / "0000.snap"
    tables.write_diag_csv(diag, [DiagRecord(0.01 * i, 0.125, 0.75, 0.075, 1e-3, -2.5e-17) for i in range(4)])
    snapshots.write_snapshot(snap, ld.random_solenoidal(ld.Grid(8), seed=5), "leray_deconv", 0.5, 2)
    manifest = tables.write_manifest(directory, [str(diag), str(snap)], "c0ffee")
    return {"read_diag_csv": diag, "read_manifest": Path(manifest), "read_snapshot": snap}


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
