"""CLI end to end: artifacts on disk, reproducibility, exit codes."""

import ast
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from leraydec import cli, solver, tables, validate_field
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
                          (["kind=manufactured", "expr=bogus"], "expr"),
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
                                     "grid.dealias=false"])
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


def test_transfer_tables(tmp_path):
    out = str(tmp_path / "tf")
    assert _run(["transfer", "--delta", "0.5", "--orders", "0,3",
                 "--k-max", "4", "--points", "9", "--out", out]) == 0
    cols = tables.read_transfer_csv(os.path.join(out, "transfer_order_3.csv"))
    assert cols["k"][0] == 0.0 and cols["d_hat"][0] == 1.0
    assert len(cols["k"]) == 9
    assert os.path.exists(os.path.join(out, "transfer_order_0.csv"))
    assert os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("args", [
    ["--points", "0"], ["--delta", "0"], ["--orders", "-1"],
    ["--figures", "--k-max", "-1"], ["--figures", "--points", "0"],
    ["--k-max", "inf"], ["--k-max", "nan"],
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
])
def test_study_commands_reject_by_study_key(tmp_path, capsys, args, key):
    out = tmp_path / "never"
    assert _run([*args, "--out", str(out)]) == 1
    assert f"error: invalid value for study.{key}:" in capsys.readouterr().err
    assert not out.exists()


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


def test_transfer_figures_mode(tmp_path):
    out = str(tmp_path / "fig")
    assert _run(["transfer", "--figures", "--orders", "0,1",
                 "--smoother-orders", "0,10", "--out", out]) == 0
    names = set(os.listdir(out))
    assert "transfer_figures_deconvolution.csv" in names
    assert "transfer_figures_smoother.csv" in names
    assert "transfer_figures_report.json" in names


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


def test_sweep_delta_needs_deltas(cfg_path, tmp_path, capsys):
    code = _run(["sweep-delta", "--config", cfg_path,
                 "--orders", "0", "--out", str(tmp_path / "sw")])
    assert code == 1
    assert "needs --deltas" in capsys.readouterr().err


def test_sweeps_read_study_section_without_kind(cfg_path, tmp_path, capsys):
    path = tmp_path / "study.cfg"
    path.write_text(BASE_CFG + "\n[study]\ndeltas = 0.4,0.2,0.1\norders = 0\n")
    out = str(tmp_path / "sw")
    assert _run(["sweep-delta", "--config", str(path), "--out", out]) == 0
    assert "order_0: slope" in capsys.readouterr().out
    assert _run(["sweep-n", "--config", str(path), "--out", str(tmp_path / "sn")]) == 0
    assert "order 0: l2l2" in capsys.readouterr().out
    assert _run(["sweep-n", "--config", cfg_path, "--set", "study.orders=1",
                 "--out", str(tmp_path / "sn1")]) == 0
    assert "order 1: l2l2" in capsys.readouterr().out
    assert _run(["sweep-n", "--config", str(path), "--orders", "2",
                 "--out", str(tmp_path / "sn2")]) == 0
    stdout = capsys.readouterr().out
    assert "order 2: l2l2" in stdout and "order 0:" not in stdout


@pytest.mark.parametrize("args, key", [
    (["sweep-n", "--delta", "-1", "--orders", "0"], "delta"),
    (["sweep-n", "--delta", "nan", "--orders", "0"], "delta"),
    (["sweep-n", "--orders", "0,-1"], "orders"),
    (["sweep-delta", "--deltas", "0.4,0.2,0.1", "--orders", "-1"], "orders"),
    (["sweep-delta", "--deltas", "0.4,0.2,0.1", "--orders", "0", "--set", "study.floor=nan"], "floor"),
    (["sweep-delta", "--deltas", "0.4,0.2,0.1", "--orders", "0", "--set", "study.floor=-1"], "floor"),
    (["sweep-delta", "--orders", "0", "--set", "study.deltas=0.1,0.2,0.3"], "deltas"),
    (["sweep-delta", "--deltas", "0.4,0.2,0.1", "--orders", "0", "--fit-window", "2"], "fit_window"),
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


@pytest.mark.parametrize("first, second", [
    (["sweep-n", "--orders", "0"], ["sweep-n", "--orders", "0,1,2", "--delta", "0.3"]),
    (["sweep-delta", "--deltas", "0.4,0.2,0.1", "--orders", "0"],
     ["sweep-delta", "--deltas", "0.4,0.2,0.1", "--orders", "1"]),
], ids=["sweep-n", "sweep-delta"])
def test_sweep_digest_covers_the_study_flags(cfg_path, tmp_path, capsys, first, second):
    out = str(tmp_path / "sw")

    def digest(args):
        assert _run([args[0], "--config", cfg_path, *args[1:], "--out", out]) == 0
        return tables.read_manifest(os.path.join(out, "manifest.json"))["config_sha256"]

    a = digest(first)
    assert digest(second) != a
    assert digest(first) == a


def test_consistency_command(tmp_path, capsys):
    assert _run(["consistency", "--deltas", "0.2,0.1,0.05",
                 "--orders", "0", "--grid-n", "8",
                 "--out", str(tmp_path / "c")]) == 0
    stdout = capsys.readouterr().out
    assert "order_0: slope" in stdout
    assert "consistency_rate_main.csv" in set(os.listdir(tmp_path / "c"))
