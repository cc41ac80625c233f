"""CLI end to end: artifacts on disk, reproducibility, exit codes."""

import ast
import csv
import dataclasses
import hashlib
import json
import os
import re
import shlex
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from leraydec import cli, diagnostics, experiments, filtering, parse_config, solver, tables, validate_field
from leraydec.snapshots import read_snapshot

BASE_CFG = """
[grid]
n = 8

[fluid]
nu = 0.2

[time]
dt = 0.05
t_end = 0.2

[model]
kind = leray_deconv
delta = 0.5
order = 1
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CFG)
    return str(path)


def _run(argv):
    return cli.main(argv)


def test_run_writes_artifacts(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "out")
    assert _run(["run", "--config", cfg_path, "--out", out]) == 0
    names = sorted(os.listdir(out))
    assert names == [
        "diag.csv", "effective.cfg", "manifest.json",
        "snap_000000.snap", "snap_000001.snap",
    ]
    stdout = capsys.readouterr().out
    assert "config sha256: " in stdout
    assert "steps: 4" in stdout

    manifest = tables.read_manifest(os.path.join(out, "manifest.json"))
    listed = {e["name"] for e in manifest["files"]}
    assert listed == set(names) - {"manifest.json"}
    for entry in manifest["files"]:
        assert entry["sha256"] == tables.file_sha256(os.path.join(out, entry["name"]))

    records = tables.read_diag_csv(os.path.join(out, "diag.csv"))
    assert len(records) == 5  # t = 0 row plus one per step
    assert records[-1].t == pytest.approx(0.2)


def test_run_is_byte_reproducible(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert _run(["run", "--config", cfg_path, "--out", out1]) == 0
    assert _run(["run", "--config", cfg_path, "--out", out2]) == 0
    for name in ("diag.csv", "snap_000000.snap", "snap_000001.snap"):
        a = Path(out1, name).read_bytes()
        b = Path(out2, name).read_bytes()
        assert a == b, name
    # the echoed configs differ only in the output directory they record
    strip = lambda p: [ln for ln in Path(p).read_text().splitlines() if not ln.startswith("dir =")]
    assert strip(os.path.join(out1, "effective.cfg")) == strip(os.path.join(out2, "effective.cfg"))


def test_effective_config_reproduces_run(cfg_path, tmp_path):
    out1 = str(tmp_path / "orig")
    assert _run(["run", "--config", cfg_path, "--out", out1]) == 0
    echoed = os.path.join(out1, "effective.cfg")
    out2 = str(tmp_path / "echoed")
    assert _run(["run", "--config", echoed, "--out", out2]) == 0
    a = Path(out1, "diag.csv").read_bytes()
    b = Path(out2, "diag.csv").read_bytes()
    assert a == b


def test_set_override_changes_run(cfg_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert _run(["run", "--config", cfg_path, "--out", out1]) == 0
    assert _run(["run", "--config", cfg_path, "--out", out2,
                 "--set", "fluid.nu=0.4"]) == 0
    a = Path(out1, "diag.csv").read_bytes()
    b = Path(out2, "diag.csv").read_bytes()
    assert a != b


def test_invalid_config_exits_one(cfg_path, tmp_path, capsys):
    code = _run(["run", "--config", cfg_path, "--out", str(tmp_path / "x"),
                 "--set", "fluid.nu=-1"])
    assert code == 1
    assert "error: invalid value for fluid.nu: viscosity must be >= 0, got -1.0" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["ic", "forcing"])
def test_bad_field_parameter_exits_one_before_creating_output(cfg_path, tmp_path, capsys, section):
    out = tmp_path / "never"
    for settings, key in ((["kind=single_mode", "mode=0,0,0"], "mode"),
                          (["kind=manufactured"], "kind"),
                          (["expr=abc_flow"], "expr"),
                          (["kind=random_solenoidal", "slope=700"], "slope"),
                          (["kind=random_solenoidal", "slope=1000"], "slope")):
        sets = [arg for item in settings for arg in ("--set", f"{section}.{item}")]
        assert _run(["run", "--config", cfg_path, "--out", str(out), *sets]) == 1
        assert f"error: invalid value for {section}.{key}:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("setting", ["model.delta=nan", "fluid.nu=inf", "ic.amplitude=nan"])
def test_nonfinite_value_exits_one_before_creating_output(cfg_path, tmp_path, capsys, setting):
    out = tmp_path / "never"
    assert _run(["run", "--config", cfg_path, "--out", str(out), "--set", setting]) == 1
    key = setting.split("=")[0]
    assert f"error: invalid value for {key}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["time.t_end=1e308", "model.conv_form=divergence", "grid.n=1000000000",
                                     "grid.dealias=false", "model.max_order=100"])
def test_rejected_run_setting_exits_one_before_any_run_or_output(cfg_path, tmp_path, capsys,
                                                                 monkeypatch, setting):
    runs = []
    monkeypatch.setattr(solver, "run", lambda config: runs.append(config))
    out = tmp_path / "never"
    assert _run(["run", "--config", cfg_path, "--out", str(out), "--set", setting]) == 1
    key = setting.split("=")[0]
    assert f"error: invalid value for {key}:" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


def test_missing_config_file_exits_one(tmp_path, capsys):
    code = _run(["run", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_exits_one(capsys):
    assert _run([]) == 1
    assert _run(["run", "--bogus-flag"]) == 1
    capsys.readouterr()


@pytest.mark.filterwarnings("ignore")  # CFL advisory and overflow are the point
def test_blow_up_exits_two(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "boom")
    code = _run([
        "run", "--config", cfg_path, "--out", out,
        "--set", "fluid.nu=0", "--set", "time.dt=5", "--set", "time.t_end=50",
        "--set", "ic.amplitude=100",
    ])
    assert code == 2
    assert "blow-up" in capsys.readouterr().err
    assert os.path.exists(os.path.join(out, "effective.cfg"))
    assert os.path.exists(os.path.join(out, "manifest.json"))
    # guard: the partial output reads back whole, every row finite, every
    # snapshot a valid solenoidal field, every digest its file's
    records = tables.read_diag_csv(os.path.join(out, "diag.csv"))
    assert records and all(np.isfinite([getattr(r, f) for f in r.FIELDS]).all() for r in records)
    snaps = sorted(Path(out).glob("snap_*.snap"))
    assert snaps
    for path in snaps:
        validate_field(read_snapshot(path)[0], solenoidal=True)
    for entry in tables.read_manifest(os.path.join(out, "manifest.json"))["files"]:
        assert entry["sha256"] == tables.file_sha256(os.path.join(out, entry["name"]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_nonfinite_initial_state_blows_up_at_step_zero(cfg_path, tmp_path, capsys):
    out = tmp_path / "boom0"
    assert _run(["run", "--config", cfg_path, "--out", str(out), "--set", "ic.amplitude=1e160"]) == 2
    captured = capsys.readouterr()
    assert "blow-up: solution blew up at step 0 (t = 0)" in captured.err
    assert "steps:" not in captured.out
    assert sorted(os.listdir(out)) == ["effective.cfg", "manifest.json"]


@pytest.mark.parametrize("setting", ["model.delta=1e308", "fluid.nu=1e308"])
def test_huge_radius_or_viscosity_runs_without_warnings(cfg_path, tmp_path, setting):
    # the multipliers overflow to their exact limits, g = h_N = 0 and a decay
    # of 0; the suite's filterwarnings = error fails any overflow warning
    out = tmp_path / "huge"
    assert _run(["run", "--config", cfg_path, "--out", str(out), "--set", setting]) == 0
    assert len(tables.read_diag_csv(out / "diag.csv")) == 5


def test_cutoff_stdout(capsys):
    assert _run(["cutoff", "--deltas", "1,0.5,0.25", "--orders", "0,1,2"]) == 0
    out = capsys.readouterr().out
    assert "k_c_delta_1" in out
    rows = [ln.split() for ln in out.splitlines()[1:] if ln and not ln.startswith("flag")]
    assert rows[0] == ["0", "1", "2", "4"]


def test_cutoff_at_a_small_radius_lands_on_the_integer(tmp_path):
    assert _run(["cutoff", "--deltas", "1e-5", "--orders", "0", "--out", str(tmp_path / "c")]) == 0
    assert _table_cells(tmp_path / "c" / "cutoff_table_main.csv") == {"order": ["0"], "k_c_delta_1e-05": ["100000"]}


def _table_cells(path):
    """A study CSV's columns, each as its list of cells as written."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(ln for ln in fh if not ln.startswith("#")))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


def test_transfer_tables(tmp_path):
    out = tmp_path / "tf"
    assert _run(["transfer", "--delta", "0.5", "--orders", "0,3",
                 "--k-max", "4", "--points", "9", "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {"transfer_main.csv", "transfer_report.json", "manifest.json"}
    cols = _table_cells(out / "transfer_main.csv")
    assert list(cols) == ["k", "g_hat", "d_exact", "d_hat_order_0", "h_hat_order_0", "d_hat_order_3", "h_hat_order_3"]
    assert len(cols["k"]) == 9 and cols["k"][0] == "0" and cols["d_hat_order_3"][0] == "1"
    assert cols["d_exact"][-1] == "5"  # 1 + (0.5 * 4)^2
    report = json.loads((out / "transfer_report.json").read_text())
    assert report["params"] == {"delta": 0.5, "orders": [0, 3], "k_max": 4.0, "k_points": 9}


# The cells `transfer` wrote before its two modes became one table, at k = 0..4:
# the per-order files of `transfer --delta 0.5 --orders 0,3` (g_hat, d_hat and
# h_hat, now g_hat, d_hat_order_<N> and h_hat_order_<N>), and the curves of
# `transfer --figures --orders 0,2 --smoother-orders 0,10` (at delta = 1).
_FORMER_TRANSFER_CELLS = {
    "per-order-files": (["--delta", "0.5", "--orders", "0,3"], {
        "k": "0 1 2 3 4",
        "g_hat": "1 0.80000000000000004 0.5 0.30769230769230771 0.20000000000000001",
        "d_hat_order_0": "1 0.99999999999999989 1 1 1",
        "h_hat_order_0": "1 0.79999999999999993 0.5 0.30769230769230771 0.20000000000000001",
        "d_hat_order_3": "1 1.248 1.875 2.503413746017296 2.952",
        "h_hat_order_3": "1 0.99839999999999995 0.9375 0.77028115262070651 0.59040000000000004",
    }),
    "figures": (["--orders", "0,2,10"], {
        "k": "0 1 2 3 4",
        "d_hat_order_0": "1 1 1 0.99999999999999989 1",
        "d_hat_order_2": "1 1.75 2.4400000000000004 2.71 2.8269896193771622",
        "d_exact": "1 2 5 10 17",
        "h_hat_order_0": "1 0.5 0.20000000000000001 0.099999999999999992 0.058823529411764705",
        "h_hat_order_10": "1 0.99951171875 0.91410065407999996 0.68618940390999994 0.48668769634150977",
    }),
}


@pytest.mark.parametrize("mode", _FORMER_TRANSFER_CELLS)
def test_transfer_writes_every_value_of_the_former_modes(tmp_path, mode):
    flags, expected = _FORMER_TRANSFER_CELLS[mode]
    out = tmp_path / "tf"
    assert _run(["transfer", *flags, "--k-max", "4", "--points", "5", "--out", str(out)]) == 0
    cols = _table_cells(out / "transfer_main.csv")
    assert {name: " ".join(cols[name]) for name in expected} == expected


def test_transfer_without_out_prints_its_table_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _run(["transfer", "--orders", "2", "--k-max", "4", "--points", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["k", "g_hat", "d_exact", "d_hat_order_2", "h_hat_order_2"]
    rows = [[float(v) for v in ln.split()] for ln in lines[1:]]
    assert [row[0] for row in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert rows[1][3] == 1.75  # d_2 at delta k = 1: 2 (1 - 1/8)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["--points", "0"], ["--delta", "0"], ["--orders", "-1"], ["--k-max", "-1"],
    ["--k-max", "inf"], ["--k-max", "nan"], ["--points", "10000000000000"],
], ids="-".join)
def test_transfer_rejects_before_creating_output(tmp_path, capsys, args):
    out = tmp_path / "tf"
    assert _run(["transfer", *args, "--out", str(out)]) == 1
    key = {"--points": "k_points", "--delta": "delta", "--orders": "orders", "--k-max": "k_max"}[args[-2]]
    assert f"error: invalid value for study.{key}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, key", [
    (["consistency", "--orders", "-1"], "orders"),
    (["consistency", "--grid-n", "7"], "grid_n"),
    (["consistency", "--fit-window", "2"], "fit_window"),
    (["cutoff", "--orders", "-1"], "orders"),
    (["cutoff", "--deltas", "1,2"], "deltas"),
    (["transfer", "--delta", "-1"], "delta"),
    (["consistency", "--grid-n", "1000000000"], "grid_n"),
    (["consistency", "--grid-n", "8", "--orders", "1,0,1"], "orders"),  # an order is measured once
    (["transfer", "--orders", "2,2"], "orders"),
])
def test_study_commands_reject_by_study_key(tmp_path, capsys, args, key):
    out = tmp_path / "never"
    assert _run([*args, "--out", str(out)]) == 1
    assert f"error: invalid value for study.{key}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["consistency", "--deltas", "0.2,0.1,0", "--grid-n", "8"],
    ["cutoff", "--deltas", "1,0.5,0", "--orders", "0,1"],
])
def test_a_zero_radius_is_rejected_by_key_before_any_sweep_point(tmp_path, capsys, monkeypatch, args):
    # only delta_rate runs delta = 0 (the NSE); elsewhere it is rejected before the sweep starts
    computed = []
    monkeypatch.setattr(diagnostics, "consistency_report", lambda *a: computed.append(a))
    monkeypatch.setattr(filtering, "cutoff_frequency", lambda *a: computed.append(a))
    out = tmp_path / "never"
    assert _run([*args, "--out", str(out)]) == 1
    assert "error: invalid value for study.deltas: deltas must be positive" in capsys.readouterr().err
    assert computed == [] and not out.exists()


def test_only_study_spec_builds_study_specs():
    """Every study command builds its StudySpec through cli._study_spec."""
    users = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if (isinstance(node, ast.Name) and node.id == "StudySpec") or (
                isinstance(node, ast.Attribute) and node.attr == "StudySpec"):
            users.add(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(Path(cli.__file__).read_text()), "<module>")
    assert users == {"_study_spec"}


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```sh\n(.*?)^```", readme.read_text(), flags=re.M | re.S)
    lines = (ln.split(" #")[0].strip() for block in blocks for ln in block.splitlines())
    return [ln for ln in lines if ln.startswith("leraydec ")]


def test_readme_commands_parse():
    """Each documented command line parses with the current flags and dests."""
    commands = _readme_commands()
    assert len(commands) >= 8
    parser = cli.build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_compare_identical_dirs(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "ref")
    assert _run(["run", "--config", cfg_path, "--out", out]) == 0
    metrics = str(tmp_path / "metrics.json")
    assert _run(["compare", "--model", out, "--reference", out,
                 "--json", metrics]) == 0
    stdout = capsys.readouterr().out
    assert "l2l2:" in stdout
    payload = json.loads(Path(metrics).read_text())
    assert payload["l2_final"] == 0.0
    assert payload["l2l2"] == 0.0
    assert payload["h1_timeavg"] == 0.0


def test_compare_runs_on_two_grids(cfg_path, tmp_path, capsys):
    coarse, fine = str(tmp_path / "n8"), str(tmp_path / "n16")
    assert _run(["run", "--config", cfg_path, "--out", coarse]) == 0
    assert _run(["run", "--config", cfg_path, "--set", "grid.n=16", "--set", "model.kind=nse",
                 "--out", fine]) == 0
    metrics = str(tmp_path / "metrics.json")
    capsys.readouterr()
    assert _run(["compare", "--model", coarse, "--reference", fine, "--json", metrics]) == 0
    assert "cutoff:     2\n" in capsys.readouterr().out
    expected = diagnostics.model_error(*(_read_run(d) for d in (coarse, fine)))
    assert json.loads(Path(metrics).read_text()) == dataclasses.asdict(expected)
    assert expected.cutoff == 2 and expected.l2_final > 0.0


def test_compare_reads_the_directories_pair_by_pair(cfg_path, tmp_path):
    """compare reads the two directories pair by pair and releases each pair
    before it reads the next: its peak stays near three full-grid fields
    (measured 2.96-3.02; 4.7-4.9 while the previous pair was still held), not
    the 22 snapshots the two runs wrote."""
    dirs = [str(tmp_path / name) for name in ("model", "ref")]
    for out, kind in zip(dirs, ("leray_deconv", "nse")):
        assert _run(["run", "--config", cfg_path, "--set", "grid.n=16", "--set", "time.t_end=0.5",
                     "--set", "time.snapshot_every=1", "--set", f"model.kind={kind}", "--out", out]) == 0
        assert len(list(Path(out).glob("*.snap"))) == 11
    field_bytes = 3 * 16**3 * 16
    tracemalloc.start()
    try:
        assert _run(["compare", "--model", dirs[0], "--reference", dirs[1]]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * field_bytes


def _read_run(out_dir):
    return SimpleNamespace(snapshots=[read_snapshot(p)[0] for p in sorted(Path(out_dir).glob("*.snap"))])


def test_compare_missing_dir_exits_one(tmp_path, capsys):
    code = _run(["compare", "--model", str(tmp_path / "none"),
                 "--reference", str(tmp_path / "none")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_sweep_delta(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "sw")
    assert _run(["sweep-delta", "--config", cfg_path,
                 "--deltas", "0.4,0.2,0.1", "--orders", "0", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "order_0: slope" in stdout
    names = set(os.listdir(out))
    assert {"delta_rate_main.csv", "delta_rate_report.json", "manifest.json"} <= names
    payload = json.loads(Path(out, "delta_rate_report.json").read_text())
    assert payload["fits"]["order_0"]["expected"] == 2.0


def test_sweep_delta_runs_its_default_radii(cfg_path, tmp_path, capsys):
    out = tmp_path / "sw"
    assert _run(["sweep-delta", "--config", cfg_path, "--out", str(out)]) == 0
    assert "order_0: slope" in capsys.readouterr().out
    report = json.loads((out / "delta_rate_report.json").read_text())
    assert report["params"] == {"orders": [0], "deltas": [0.4, 0.2, 0.1], "fit_window": 3}


@pytest.mark.parametrize("command", ["run", "sweep-delta", "sweep-n"])
def test_a_study_section_or_key_is_rejected_before_any_run_or_output(cfg_path, tmp_path, capsys,
                                                                      monkeypatch, command):
    """A sweep is set by the study command's flags alone: a [study] section in
    the config, or a --set study.<key>, is unknown like any other."""
    runs = []
    monkeypatch.setattr(solver, "run", lambda config: runs.append(config))
    with_section = tmp_path / "study.cfg"
    with_section.write_text(BASE_CFG + "\n[study]\norders = 0\n")
    out = tmp_path / "never"
    for config, extra, message in ((str(with_section), [], "unknown section [study]"),
                                   (cfg_path, ["--set", "study.orders=0"], "unknown key study.orders")):
        assert _run([command, "--config", config, *extra, "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("args, key", [
    (["sweep-n", "--delta", "-1", "--orders", "0"], "delta"),
    (["sweep-n", "--delta", "nan", "--orders", "0"], "delta"),
    (["sweep-n", "--orders", "0,-1"], "orders"),
    (["sweep-delta", "--deltas", "0.4,0.2,0.1", "--orders", "-1"], "orders"),
    (["sweep-delta", "--deltas", "0.4,,0.1"], "deltas"),
    (["sweep-n", "--delta", "inf"], "delta"),
    (["sweep-delta", "--orders", "0", "--deltas", "0.1,0.2,0.3"], "deltas"),
    (["sweep-delta", "--deltas", "0.4,0.2,0.1", "--orders", "0", "--fit-window", "2"], "fit_window"),
    (["sweep-delta", "--fit-window", "4"], "fit_window"),  # wider than the three default radii
    (["sweep-delta", "--orders", "0,1,0"], "orders"),
    (["sweep-n", "--orders", "2,2"], "orders"),
])
def test_sweep_rejects_before_any_run_or_output(cfg_path, tmp_path, capsys, monkeypatch, args, key):
    runs = []
    monkeypatch.setattr(solver, "run", lambda config: runs.append(config))
    out = tmp_path / "never"
    assert _run([args[0], "--config", cfg_path, *args[1:], "--out", str(out)]) == 1
    assert f"error: invalid value for study.{key}:" in capsys.readouterr().err
    assert runs == []
    assert not out.exists()


def test_sweep_n(cfg_path, tmp_path, capsys):
    out = str(tmp_path / "sn")
    assert _run(["sweep-n", "--config", cfg_path, "--delta", "0.5",
                 "--orders", "0,1", "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "order 0: l2l2" in stdout
    assert "n_limit_main.csv" in set(os.listdir(out))


_CONSISTENCY = ["consistency", "--orders", "0", "--grid-n", "8"]


@pytest.mark.parametrize("first, second, same", [
    (["sweep-n", "--orders", "0"], ["sweep-n", "--orders", "0,1,2", "--delta", "0.3"], False),
    (["sweep-delta", "--deltas", "0.4,0.2,0.1", "--orders", "0"],
     ["sweep-delta", "--deltas", "0.4,0.2,0.1", "--orders", "1"], False),
    ([*_CONSISTENCY, "--deltas", "0.2,0.1,0.05,0.025", "--fit-window", "3"],
     [*_CONSISTENCY, "--deltas", "0.2,0.1,0.05,0.025", "--fit-window", "4"], False),
    ([*_CONSISTENCY, "--deltas", "0.2,0.10,0.05,0.025"], [*_CONSISTENCY, "--deltas", "0.2,0.1,0.05,0.025"], True),
    (["transfer", "--orders", "0, 1, 2"], ["transfer"], True),
], ids=["sweep-n", "sweep-delta", "consistency-fit-window", "deltas-spelling", "transfer-default-flag"])
def test_sweep_digest_covers_the_study_flags(cfg_path, tmp_path, capsys, first, second, same):
    """A study manifest's digest names the resolved StudySpec value of every
    flag the command takes, not the flag's spelling or whether it was given."""
    out = str(tmp_path / "sw")

    def digest(args):
        config = ["--config", cfg_path] if args[0] in ("sweep-n", "sweep-delta") else []
        assert _run([args[0], *config, *args[1:], "--out", out]) == 0
        return tables.read_manifest(os.path.join(out, "manifest.json"))["config_sha256"]

    a = digest(first)
    assert (digest(second) == a) is same
    assert digest(first) == a


# a value other than its default for each flag of the study commands that read no --config
_OTHER_VALUES = {"deltas": "0.3,0.15,0.075", "orders": "1,4", "delta": "0.25", "fit_window": "4",
                 "grid_n": "10", "k_max": "5", "k_points": "7"}


@pytest.mark.parametrize("command, base", [
    ("transfer", {}), ("cutoff", {}), ("consistency", {"grid_n": "8"}),
], ids=["transfer", "cutoff", "consistency"])
def test_no_study_flag_is_ignored(tmp_path, command, base):
    """Each flag the command takes, given other than at its default, changes
    the written tables or the report's results, not only the manifest's
    digest and the report's echo of the request (`params`)."""
    flags = experiments.request(cli._STUDY_COMMANDS[command][0])
    assert set(flags) <= set(_OTHER_VALUES)

    def written(label, values):
        out = tmp_path / label
        args = [item for name, value in values.items() for item in (cli._STUDY_FLAGS[name][0], value)]
        assert _run([command, *args, "--out", str(out)]) == 0
        report = json.loads(next(out.glob("*_report.json")).read_text())
        del report["params"]
        return report, {p.name: p.read_bytes() for p in out.glob("*.csv")}

    default = written("default", base)
    for name in flags:
        assert written(name, {**base, name: _OTHER_VALUES[name]}) != default, name


@pytest.mark.parametrize("args, message", [
    (["cutoff", "--deltas", "1,abc"], "error: invalid value for study.deltas:"),
    (["transfer", "--orders", "1,,2"], "error: invalid value for study.orders:"),
    (["consistency", "--grid-n", "8", "--deltas", "0.2,0.1,0.05", "--fit-window", "9"],
     "error: invalid value for study.fit_window:"),
    (["cutoff", "--deltas", "5e-324", "--orders", "0"],
     "error: invalid value for study.deltas: the cutoff at radius 5e-324 and order 0 is not a finite float"),
    (["cutoff", "--deltas", "1e-308", "--orders", "0,50"], "error: invalid value for study.deltas:"),
])
def test_a_flag_without_a_config_is_rejected_before_any_output(tmp_path, capsys, args, message):
    out = tmp_path / "never"
    assert _run([*args, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_consistency_at_huge_radii_writes_an_infinite_crude_bound(tmp_path):
    # delta^(2N+2) overflows from about 1.3e154 at order 0 and 1.2e77 at order 1;
    # the suite's filterwarnings = error fails any overflow warning
    out = tmp_path / "c"
    assert _run(["consistency", "--grid-n", "8", "--deltas", "1e300,1e200,1e100", "--out", str(out)]) == 0
    cols = _table_cells(out / "consistency_rate_main.csv")
    assert cols["bound_crude_order_0"][:2] + cols["bound_crude_order_1"] == ["inf"] * 5
    assert float(cols["bound_crude_order_0"][2]) > 1e200  # 1e100^2, within range


def test_consistency_command(tmp_path, capsys):
    assert _run(["consistency", "--deltas", "0.2,0.1,0.05",
                 "--orders", "0", "--grid-n", "8",
                 "--out", str(tmp_path / "c")]) == 0
    stdout = capsys.readouterr().out
    assert "order_0: slope" in stdout
    assert "consistency_rate_main.csv" in set(os.listdir(tmp_path / "c"))


# each study command's default sweep, radius and fit window, spelled out as flags
_DEFAULT_SWEEP_FLAGS = {
    "transfer": ["--orders", "0,1,2", "--delta", "1"],
    "sweep-delta": ["--orders", "0", "--deltas", "0.4,0.2,0.1", "--fit-window", "3"],
    "sweep-n": ["--orders", "0,1,2,4,8", "--delta", "0.5"],
    "cutoff": ["--orders", "0,5,10,15,20,25,30,35,40,45,50", "--deltas", "1,0.5,0.25"],
    "consistency": ["--orders", "0,1", "--deltas", "0.2,0.1,0.05,0.025", "--fit-window", "3"],
}


def _untimed(table_csv: bytes) -> list:
    """A study table's rows without its measured-time columns."""
    rows = list(csv.reader(ln for ln in table_csv.decode().splitlines() if not ln.startswith("#")))
    keep = [i for i, name in enumerate(rows[0]) if "_seconds" not in name]
    return [[row[i] for i in keep] for row in rows]


@pytest.mark.parametrize("command", list(cli._STUDY_COMMANDS))
def test_a_sweep_left_out_is_the_kinds_default_sweep(cfg_path, tmp_path, command):
    """A study run with no sweep flag and one given its kind's default
    --orders/--deltas/--delta/--fit-window write the same bytes, manifest
    digest included; the trajectory sweeps differ only in their measured times."""
    head = {"sweep-delta": ["--config", cfg_path], "sweep-n": ["--config", cfg_path],
            "consistency": ["--grid-n", "8"]}.get(command, [])
    out = tmp_path / "out"  # one directory, since a run config's hash covers output.dir

    def written(flags):
        assert _run([command, *head, *flags, "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    left_out, spelled = written([]), written(_DEFAULT_SWEEP_FLAGS[command])
    assert left_out.keys() == spelled.keys()
    if command in ("sweep-delta", "sweep-n"):
        def digest(files):
            return json.loads(files["manifest.json"])["config_sha256"]

        assert digest(left_out) == digest(spelled)
        for name in (n for n in left_out if n.endswith(".csv")):
            assert _untimed(left_out[name]) == _untimed(spelled[name]), name
    else:
        assert left_out == spelled


@pytest.mark.parametrize("command", list(cli._STUDY_COMMANDS))
def test_a_study_digest_hashes_the_request_its_report_echoes(cfg_path, tmp_path, command):
    """A study manifest's config_sha256 is the sha256 of the command and the
    report's params, with the run config's hash for a command that reads
    --config: the request the report echoes is the one the digest names."""
    head = {"sweep-delta": ["--config", cfg_path], "sweep-n": ["--config", cfg_path],
            "consistency": ["--grid-n", "8"]}.get(command, [])
    out = tmp_path / "out"
    assert _run([command, *head, "--out", str(out)]) == 0
    report = json.loads(next(out.glob("*_report.json")).read_text())
    parts = {"cmd": command, **report["params"]}
    if command in ("sweep-delta", "sweep-n"):
        parts["config_sha256"] = parse_config(cfg_path, [f"output.dir={out}"]).config_hash
    digest = hashlib.sha256(json.dumps(parts, sort_keys=True).encode()).hexdigest()
    assert tables.read_manifest(out / "manifest.json")["config_sha256"] == digest


# manifest digests of study commands, pinned; a change that moves one on purpose updates it here
_PINNED_DIGESTS = {
    "transfer --delta 0.5 --orders 0,1,2": "a3f547f72eea3d9c7a04ba4ac1adbdb5f55ed747eaf0c0bdcfc4cd5787ef2b3d",
    "transfer --orders 0,1,2,10,50": "8546d1987dc3099c2d389ec8f73df85090ec52731cc1a59feb8a0a64c0de311b",
    "cutoff --deltas 1,0.5,0.25 --orders 0,1,2,5,10": "69f0a912e05650958d436f10b16bb5c3f09cade59b5f917547d3de661671c7b5",
    "consistency --grid-n 8": "ffeae57c1ee04c101de9642c87ccf1528385ade63693fce8896feee0e7130d0d",
}


def test_study_digests_stay_pinned(tmp_path):
    digests = {}
    for i, command in enumerate(_PINNED_DIGESTS):
        out = tmp_path / str(i)
        assert _run([*command.split(), "--out", str(out)]) == 0
        digests[command] = tables.read_manifest(out / "manifest.json")["config_sha256"]
    assert digests == _PINNED_DIGESTS
