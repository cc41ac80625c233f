"""CSV/JSON table IO: schema markers, exact round trips, manifests."""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

import leraydec as ld
from leraydec import experiments, tables
from leraydec.diagnostics import DiagRecord


def _records():
    # values chosen to exercise the full float formatter, not round numbers
    return [
        DiagRecord(t=0.0, energy=0.125, h1_seminorm_sq=0.75, dissipation=0.075,
                   input_power=0.0, balance_residual=0.0),
        DiagRecord(t=0.01, energy=0.12345678901234567, h1_seminorm_sq=0.7,
                   dissipation=0.07, input_power=1e-3, balance_residual=-2.5e-17),
    ]


def test_diag_csv_round_trip_exact(tmp_path):
    path = tmp_path / "diag.csv"
    recs = _records()
    tables.write_diag_csv(path, recs)
    back = tables.read_diag_csv(path)
    assert back == recs  # %.17g preserves doubles exactly
    assert path.read_text().startswith("# schema: diag/1")


def test_diag_csv_schema_rejections(tmp_path):
    path = tmp_path / "diag.csv"
    tables.write_diag_csv(path, _records())
    text = path.read_text()

    naked = tmp_path / "naked.csv"
    naked.write_text(text.split("\n", 1)[1])
    with pytest.raises(tables.TableError, match="missing schema marker"):
        tables.read_diag_csv(naked)

    newer = tmp_path / "newer.csv"
    for major in ("2", "1" * 5000):  # the second is past int()'s 4300-digit limit
        newer.write_text(text.replace("diag/1", f"diag/{major}"))
        with pytest.raises(tables.TableError, match="newer"):
            tables.read_diag_csv(newer)

    wrong = tmp_path / "wrong.csv"
    wrong.write_text(text.replace("diag/1", "study/1"))
    with pytest.raises(tables.TableError, match="expected 'diag'"):
        tables.read_diag_csv(wrong)

    for marker in ("diag/x", "diag", "diag/"):
        unnumbered = tmp_path / "unnumbered.csv"
        unnumbered.write_text(text.replace("diag/1", marker))
        with pytest.raises(tables.TableError, match="not a number") as err:
            tables.read_diag_csv(unnumbered)
        assert str(unnumbered) in str(err.value)

    garbled = tmp_path / "garbled.csv"
    garbled.write_text(text.replace("0.125", "abc", 1))
    with pytest.raises(tables.TableError, match="could not convert") as err:
        tables.read_diag_csv(garbled)
    assert str(garbled) in str(err.value)


def test_diag_csv_rejects_changed_columns(tmp_path):
    path = tmp_path / "diag.csv"
    tables.write_diag_csv(path, _records())
    mangled = path.read_text().replace("balance_residual", "residual")
    path.write_text(mangled)
    with pytest.raises(tables.TableError, match="unexpected columns"):
        tables.read_diag_csv(path)


def test_transfer_csv_round_trip(tmp_path):
    spec = ld.FilterSpec(delta=0.5, order=3)
    k = np.linspace(0.0, 8.0, 33)
    rep = experiments.run_study(
        experiments.StudySpec(kind="transfer", delta=0.5, orders=(3,), k_max=8.0, k_points=33))
    path = tmp_path / "transfer_main.csv"
    assert tables.write_study_tables(tmp_path, rep)[0] == str(path)
    lines = path.read_text().splitlines()
    assert lines[:3] == ["# schema: study/1", "# study: transfer", "k,g_hat,d_exact,d_hat_order_3,h_hat_order_3"]
    cols = np.array([[float(v) for v in ln.split(",")] for ln in lines[3:]]).T
    assert np.array_equal(cols[0], k)  # %.17g preserves doubles exactly
    for col, transfer in zip(cols[1:], (ld.transfer_g, ld.transfer_exact, ld.transfer_dn, ld.transfer_hn)):
        assert np.array_equal(col, transfer(k, spec))


def test_study_tables_and_report(tmp_path):
    rep = experiments.run_study(
        experiments.StudySpec(kind="deconv_rate", grid_n=8, orders=(0, 1))
    )
    paths = tables.write_study_tables(tmp_path / "study", rep)
    names = {p.rsplit("/", 1)[-1] for p in paths}
    assert names == {"deconv_rate_main.csv", "deconv_rate_report.json"}

    report_path = [p for p in paths if p.endswith(".json")][0]
    payload = json.loads(Path(report_path).read_text())
    assert payload["schema"] == "study/1"
    assert payload["kind"] == "deconv_rate"
    assert payload["params"] == {"deltas": [0.2, 0.1, 0.05, 0.025], "orders": [0, 1], "fit_window": 3}
    assert payload["metadata"] == {"field": "single_mode", "mode": [1, 0, 0]}
    assert payload["flags"] == []
    fit = payload["fits"]["order_0"]
    assert fit["expected"] == 2.0
    assert abs(fit["slope"] - 2.0) < 0.05
    json.dumps(payload)  # fully serializable, no numpy leftovers

    csv_path = [p for p in paths if p.endswith(".csv")][0]
    text = Path(csv_path).read_text()
    assert text.startswith("# schema: study/1")
    assert "error_order_1" in text.splitlines()[2]


def test_write_json_writes_numpy_values_as_python_ones(tmp_path):
    path = tmp_path / "payload.json"
    tables.write_json(path, {"b": np.float64(0.1), "a": (np.int64(3), np.bool_(True)), "c": np.arange(2)})
    assert path.read_text() == '{\n  "a": [\n    3,\n    true\n  ],\n  "b": 0.1,\n  "c": [\n    0,\n    1\n  ]\n}\n'
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        tables.write_json(path, {"a": object()})


def test_only_write_json_calls_json_dump():
    """Guard: every JSON file the package writes goes through tables.write_json,
    so all of them are indented, key-sorted and newline-terminated alike."""
    callers = []

    def visit(node, module, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("json.dump", "dump"):
            callers.append((module, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(Path(tables.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    assert callers == [("tables", "write_json")]


def test_manifest_round_trip(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.bin"
    a.write_text("hello\n")
    b.write_bytes(b"\x00\x01\x02")
    manifest_path = tables.write_manifest(tmp_path, [str(b), str(a)], "c0ffee")
    manifest = tables.read_manifest(manifest_path)
    assert manifest["config_sha256"] == "c0ffee"
    names = [e["name"] for e in manifest["files"]]
    assert names == ["a.csv", "b.bin"]  # sorted regardless of input order
    for entry in manifest["files"]:
        assert entry["sha256"] == tables.file_sha256(tmp_path / entry["name"])
        assert entry["bytes"] == (tmp_path / entry["name"]).stat().st_size


def test_manifest_schema_rejected(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"schema": "manifest/9", "files": []}))
    with pytest.raises(tables.TableError, match="unsupported manifest schema"):
        tables.read_manifest(path)
    path.write_text(json.dumps({"files": []}))
    with pytest.raises(tables.TableError):
        tables.read_manifest(path)
    for payload, match in [({"schema": "manifest/x", "files": []}, "unsupported manifest schema"),
                           ({"schema": 1, "files": []}, "unsupported manifest schema"),
                           ({"schema": "manifest/" + "1" * 5000, "files": []}, "unsupported manifest schema"),
                           (["manifest/1"], "not a JSON object")]:
        path.write_text(json.dumps(payload))
        with pytest.raises(tables.TableError, match=match) as err:
            tables.read_manifest(path)
        assert str(path) in str(err.value)
    for data in (b"", b"schema: manifest/1\n", b'{"schema": "manifest/1"',
                 b'{"schema": "manifest/1", "files": ["\xff"]}'):  # the last is not UTF-8
        path.write_bytes(data)
        with pytest.raises(tables.TableError, match="manifest is not JSON") as err:
            tables.read_manifest(path)
        assert str(path) in str(err.value)


def test_fmt_values(tmp_path):
    # one-third survives the text round trip bit for bit
    third = 1.0 / 3.0
    recs = [DiagRecord(t=third, energy=third, h1_seminorm_sq=third,
                       dissipation=third, input_power=third, balance_residual=third)]
    path = tmp_path / "diag.csv"
    tables.write_diag_csv(path, recs)
    assert tables.read_diag_csv(path)[0].t == third


def _rejected_by_path(read, path, match):
    with pytest.raises(tables.TableError, match=match) as err:
        read(path)
    assert str(path) in str(err.value)


def test_corrupted_diag_csv_is_rejected_by_path(tmp_path):
    path = tmp_path / "diag.csv"
    tables.write_diag_csv(path, _records())
    text = path.read_text()
    last = text.rstrip("\n").rsplit("\n", 1)[-1]
    bad = tmp_path / "bad.csv"
    # a killed run's last row, cut short or run on
    bad.write_text(text.replace(last, last.rsplit(",", 2)[0]))
    _rejected_by_path(tables.read_diag_csv, bad, "data row 2 has 4 fields, expected 6")
    bad.write_text(text.replace(last, last + ",1.5"))
    _rejected_by_path(tables.read_diag_csv, bad, "data row 2 has 7 fields, expected 6")
    bad.write_text("# schema: diag/1\n")
    _rejected_by_path(tables.read_diag_csv, bad, "no header line")
    bad.write_bytes(text.encode().replace(b"0.125", b"0.\xff25", 1))
    _rejected_by_path(tables.read_diag_csv, bad, "codec can't decode")
