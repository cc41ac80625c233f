"""Checks of the benchmark harness itself, on tiny grids (a few seconds)."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from leraydec import solver

from perfbench import oracle, run, tracing
from perfbench import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
TINY = wl.Scenario(n=8, order=2, steps=2, snapshot_every=1, forcing_amplitude=0.5)


@pytest.fixture()
def ctx(tmp_path):
    return wl.Context(TINY, 5, str(tmp_path), tracing.RunLog())


def test_counts_per_step_are_exact(ctx):
    counts = wl.count_probe(ctx, tracing.Tracer())
    n = TINY.n
    # Per right-hand side, advective form: four complex inverse transforms and
    # one real-to-complex forward transform of a 3-component field.
    assert counts == {
        "spectral.fft_calls_per_step": 15,
        "spectral.fft_bytes_per_step": 3 * (4 * 2 * 48 + 24 + 48) * n**3,
        "solver.rhs_evals_per_step": 3,
        "filtering.applications_per_step": 3 * (TINY.order + 1),
    }


@pytest.mark.parametrize("order", [None, 0, 2])
def test_oracle_matches_program(ctx, order):
    cfg = ctx.model_cfg
    if order is None:
        cfg = replace(cfg, model=solver.ModelKind.nse(), filter=None)
    else:
        cfg = replace(cfg, model=solver.ModelKind.leray_deconvolution(order),
                      filter=replace(cfg.filter, order=order))
    traj = solver.run(cfg)
    p = oracle.params_of(cfg)
    assert p == TINY.params(5, order)
    assert oracle.mismatch(traj.terminal.coeffs, p) == []


def test_oracle_catches_a_wrong_operator(ctx):
    traj = solver.run(ctx.model_cfg)
    wrong = replace(oracle.params_of(ctx.model_cfg), order=TINY.order + 1)
    assert oracle.mismatch(traj.terminal.coeffs, wrong)


def test_trace_matches_the_untraced_view_and_patches_are_undone(ctx):
    originals = (np.fft.ifftn, solver.run, wl.cli.write_snapshot)
    tracer = tracing.Tracer()
    with wl.quiet(), ctx.runlog.installed():
        op = run.timed_op(wl, "cli", ctx, tracer)
    assert (np.fft.ifftn, solver.run, wl.cli.write_snapshot) == originals
    assert op.problems == [] and op.n_runs == 2
    assert tracer.check({op.op_id: (op.wall, op.n_runs)}) == []
    # A solver.run call that escaped the wrappers, or a root span that does
    # not cover the op, is reported.
    assert tracer.check({op.op_id: (op.wall, op.n_runs + 1)})
    assert tracer.check({op.op_id: (1.1 * op.wall, op.n_runs)})
    names = {s[0] for s in tracer.spans}
    assert {"cli.cmd_run", "solver.run", "snapshots.write_snapshot", "numpy.fft.ifftn"} <= names
    metrics = wl.span_metrics(tracer, "cli", TINY.n)
    assert metrics["cli.run_s"] > metrics["cli.output_s"] > 0


def test_ffts_bound_by_name_in_the_program_are_traced(monkeypatch):
    monkeypatch.setattr(wl.spectral, "_bound_fftn", np.fft.fftn, raising=False)
    tracer = tracing.Tracer()
    with tracer.installed(), tracer.op("bound"):
        wl.spectral._bound_fftn(np.ones((4, 4)))
    assert wl.spectral._bound_fftn is np.fft.fftn
    assert [s[0] for s in tracer.spans] == ["bound", "numpy.fft.fftn"]


@pytest.mark.parametrize("kind", ["sweep", "run", "cli"])
def test_verify_accepts_the_program_and_ops_repeat(ctx, kind):
    with wl.quiet(), ctx.runlog.installed():
        fp, problems = wl.verify(kind, ctx)
        again, more = wl.fingerprint(kind, ctx, wl.OPS[kind](ctx))
    assert problems == [] and more == []
    assert again == fp


def test_rescaling_cancels_machine_speed_but_not_program_speed():
    def ops(wall):
        return [run.Op(wall, False, samples=[(wall / 2, 10)]),
                run.Op(wall, False, problems=["raised"]),
                run.Op(2 * wall, False, samples=[(wall, 10)])]

    walls, step_ms = run.rescaled(ops(3.0), [0.5, 0.5, 1.0, 1.0], 1.0)
    assert walls == [6.0, 6.0] and step_ms == 300.0  # the failed op is skipped
    # A machine twice as slow doubles ops and kernels alike: nothing moves.
    assert run.rescaled(ops(6.0), [1.0, 1.0, 2.0, 2.0], 1.0) == (walls, step_ms)
    # A program twice as fast on the same machine halves both metrics.
    assert run.rescaled(ops(1.5), [0.5, 0.5, 1.0, 1.0], 1.0) == ([3.0, 3.0], 150.0)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep-n32", "--seed", "1",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
